#ifndef TQP_KERNELS_EXPR_EXEC_H_
#define TQP_KERNELS_EXPR_EXEC_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "compile/expr_program.h"
#include "tensor/tensor.h"

namespace tqp::kernels {

/// Vectorized single-pass interpreter for compiled ExprPrograms: executes
/// one fused run over one morsel in a single sweep. Every instruction is one
/// typed, contiguous, branch-free loop over the morsel's lanes (written so
/// compilers auto-vectorize), intermediates live in a handful of
/// BufferPool-recycled register buffers sized to the morsel, and only run
/// *outputs* allocate tensors. Per-lane arithmetic mirrors the elementwise
/// kernels exactly (same promotion casts, same operations, same libm calls),
/// so results are bit-identical to node-at-a-time evaluation.

/// \brief Reusable register arena for one execution slot (one worker's
/// morsel loop). Each physical register slot is a raw block drawn lazily
/// from the process BufferPool, sized to the lanes its instruction actually
/// writes (a post-filter register holds survivor lanes, not a full morsel)
/// and grown — never shrunk — across morsels, so steady-state morsels
/// allocate nothing. Blocks return to the pool on destruction.
class ExprScratch {
 public:
  ExprScratch() = default;
  ~ExprScratch() { Release(); }
  ExprScratch(ExprScratch&& other) noexcept { *this = std::move(other); }
  ExprScratch& operator=(ExprScratch&& other) noexcept {
    if (this != &other) {
      Release();
      slots_ = std::move(other.slots_);
      other.slots_.clear();
      dom_len = std::move(other.dom_len);
      ptr = std::move(other.ptr);
      materialized = std::move(other.materialized);
    }
    return *this;
  }
  ExprScratch(const ExprScratch&) = delete;
  ExprScratch& operator=(const ExprScratch&) = delete;

  /// \brief Returns slot `i` with capacity for at least `bytes` (contents
  /// are not preserved across growth), or null on exhaustion.
  uint8_t* EnsureSlot(int i, int64_t bytes);

  /// \brief Returns every block to the BufferPool.
  void Release();

  /// Per-invocation interpreter bookkeeping (domain lengths, register byte
  /// pointers, output tensors), owned here so the capacity — sized by the
  /// immutable program, not the data — survives across morsels instead of
  /// being heap-allocated per invocation. RunExprProgram resets the contents
  /// on entry and drops tensor references before returning.
  std::vector<int64_t> dom_len;
  std::vector<const uint8_t*> ptr;
  std::vector<Tensor> materialized;

 private:
  struct Slot {
    uint8_t* data = nullptr;
    int64_t alloc = 0;
  };
  std::vector<Slot> slots_;
};

/// \brief Executes `program` over one morsel. `sources[i]` binds
/// `program.source_nodes()[i]` (dtype and broadcast-ness must match what the
/// run was compiled against — the caller recompiles on signature change).
/// `base_offset` is the morsel's global row offset in the driver domain
/// (domain 0), consumed by kIota. `outputs` receives one tensor per
/// `program.output_nodes()` entry, freshly allocated on `device`.
Status RunExprProgram(const ExprProgram& program,
                      const std::vector<Tensor>& sources, int64_t base_offset,
                      DeviceKind device, ExprScratch* scratch,
                      std::vector<Tensor>* outputs);

}  // namespace tqp::kernels

#endif  // TQP_KERNELS_EXPR_EXEC_H_
