#ifndef TQP_GRAPH_STATIC_EXECUTOR_H_
#define TQP_GRAPH_STATIC_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "compile/expr_program.h"
#include "graph/executor.h"

namespace tqp {

/// \brief Ahead-of-time planned execution — the TorchScript analog.
///
/// Two optimizations over EagerExecutor, planned once at construction:
///  1. *Elementwise fusion*: contiguous runs of pointwise ops form groups.
///     Above two blocks of ExecOptions::fusion_block_rows, a group whose
///     whole run lowers onto the engine-wide expression-fusion layer runs
///     as one register-based ExprProgram (src/compile/expr_program.h —
///     constant folding, CSE, register reuse), interpreted per cache-sized
///     block in a single pass (src/kernels/expr_exec.h), the same machinery
///     the pipelined backend runs per morsel. Lowering needs runtime dtypes,
///     so it happens at first Run and is cached against the input
///     signature. Every other group — small inputs, irregular shapes, runs
///     the lowering cannot cover, or ExecOptions::expr_fusion off — runs
///     node at a time over whole columns.
///  2. *Buffer release*: intermediate tensors are dropped as soon as their
///     last consumer has run (eager keeps everything until the end).
/// Results are bit-identical to EagerExecutor; only the schedule differs.
class StaticExecutor : public Executor {
 public:
  StaticExecutor(std::shared_ptr<const TensorProgram> program, ExecOptions options);

  Result<std::vector<Tensor>> Run(const std::vector<Tensor>& inputs) override;
  std::string name() const override { return "static"; }
  ExecutorTarget target() const override { return ExecutorTarget::kStatic; }

  /// \brief Number of fusion groups planned (>= 2 pointwise ops each);
  /// exposed for tests.
  int num_fusion_groups() const { return num_fusion_groups_; }

  /// \brief Number of fusion groups currently backed by a compiled
  /// ExprProgram (populated lazily at Run; for tests).
  int num_expr_fused_groups() const;

 private:
  // One planned step: either a single node or a fused run of pointwise nodes.
  struct Step {
    std::vector<int> node_ids;  // size 1 = plain; > 1 = fused group
  };

  Status RunFusedGroup(const Step& step, size_t step_index,
                       std::vector<Tensor>* values, Device* device);

  /// Returns the cached ExprProgram for one group (compiling against the
  /// current external-input signature when needed), or null when the group
  /// cannot be covered by a single fused run.
  std::shared_ptr<const ExprProgram> GroupFusionFor(
      const Step& step, size_t step_index, const std::vector<Tensor>& values,
      const std::vector<bool>& in_group);

  std::shared_ptr<const TensorProgram> program_;
  ExecOptions options_;
  std::vector<Step> steps_;
  std::vector<int> use_counts_;
  int num_fusion_groups_ = 0;

  /// Lazily compiled per-group ExprPrograms, keyed by input signature
  /// (concurrent Run() calls on one cached plan share this).
  struct GroupFusionEntry {
    bool compiled = false;
    std::string signature;
    std::shared_ptr<const ExprProgram> program;  // null = not coverable
  };
  mutable Mutex fusion_mu_;
  mutable std::vector<GroupFusionEntry> group_fusion_
      TQP_GUARDED_BY(fusion_mu_);  // indexed by step
};

}  // namespace tqp

#endif  // TQP_GRAPH_STATIC_EXECUTOR_H_
