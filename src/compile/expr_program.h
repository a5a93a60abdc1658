#ifndef TQP_COMPILE_EXPR_PROGRAM_H_
#define TQP_COMPILE_EXPR_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/program.h"

namespace tqp {

/// Expression fusion: the compile-time half of single-pass fused expression
/// execution. Within one pipeline (or one StaticExecutor fusion group), a
/// maximal run of streamable elementwise/selection ops is lowered into an
/// ExprProgram — a flat, register-based instruction sequence — which the
/// vectorized morsel interpreter (src/kernels/expr_exec.h) then executes
/// over one morsel in a single sweep: intermediates live in a handful of
/// preallocated, BufferPool-recycled register buffers instead of one fresh
/// tensor per op per morsel.
///
/// Lowering performs, per run:
///  - *type-promotion materialization*: the implicit casts the elementwise
///    kernels apply per call (PromoteTypes + the bool/uint8 -> int32 rules)
///    become explicit kCast instructions, so every arithmetic instruction
///    runs one typed, branch-free loop and results stay bit-identical to
///    the kernel path;
///  - *constant folding*: instructions whose operands are all 1-row program
///    constants evaluate at compile time (through the same kernels);
///  - *common-subexpression elimination* over the run (repeated promotion
///    casts, duplicate predicates, shared selection vectors);
///  - *selection-vector lowering*: a kCompress becomes one kSelVec per mask
///    (shared by every column filtered on that mask) plus one kGatherSel per
///    column, and downstream instructions run only over the selected lanes;
///    kNonzero becomes the selection vector plus the morsel's base offset;
///  - *register reuse*: virtual registers whose last consumer has executed
///    free their physical slot for later instructions (linear scan), so the
///    interpreter's working set is a few morsel-sized buffers.

/// \brief Opcodes of the fused instruction set.
enum class ExprOpCode : int8_t {
  kBinary = 0,  // kind = BinaryOpKind; dst = a <op> b (operands pre-cast)
  kCompare,     // kind = CompareOpKind; bool dst = a <cmp> b
  kLogical,     // kind = LogicalOpKind; bool dst = a <op> b
  kUnary,       // kind = UnaryOpKind; dst = op(a)
  kCast,        // dst = cast<dtype>(a), a of in_dtype
  kWhere,       // dst = a ? b : c (a bool)
  kSelVec,      // int64 dst = local indices of true lanes of bool mask a;
                // defines domain out_dom with the selected-lane count
  kGatherSel,   // dst[j] = b[a[j]] (a = selection vector, b = data column)
  kIota,        // int64 dst[j] = a[j] + base_offset (kNonzero's global rows)
};

const char* ExprOpCodeName(ExprOpCode code);

/// \brief One fused instruction. Operands a/b/c are register ids (-1 =
/// unused). `dom` is the run-local cardinality domain whose runtime length
/// is the instruction's lane count (-1 = single-lane scalar work).
struct ExprInstr {
  ExprOpCode code = ExprOpCode::kBinary;
  int8_t kind = 0;                    // Binary/Compare/Logical/UnaryOpKind
  DType dtype = DType::kFloat64;      // output element type
  DType in_dtype = DType::kFloat64;   // operand element type (cast source)
  int dst = -1;
  int a = -1;
  int b = -1;
  int c = -1;
  int dom = -1;       // lane-count domain of dst
  int out_dom = -1;   // kSelVec: the selection domain this instruction defines
};

/// \brief One virtual register and where its bytes live at execution time:
/// exactly one of source/konst/slot/output is set.
struct ExprReg {
  DType dtype = DType::kFloat64;
  bool scalar = false;  // single-lane broadcast value
  int dom = -1;         // cardinality domain (-1 for scalars)
  int source = -1;      // bound from the caller's source list
  int konst = -1;       // folded compile-time constant
  int slot = -1;        // physical temp slot (register reuse)
  int output = -1;      // materializes as run output `output`
};

/// \brief A compiled fused run: straight-line register program over the
/// morsel. Immutable after compilation; safe to execute concurrently from
/// many worker slots (all mutable state lives in the caller's ExprScratch).
class ExprProgram {
 public:
  const std::vector<ExprInstr>& instrs() const { return instrs_; }
  const std::vector<ExprReg>& regs() const { return regs_; }
  /// Node ids to bind, in order, as execution sources (externals first-use
  /// order; includes values streamed by earlier ops of the same pipeline).
  const std::vector<int>& source_nodes() const { return source_nodes_; }
  /// Node ids whose values materialize per invocation (read outside the run).
  const std::vector<int>& output_nodes() const { return output_nodes_; }
  /// Register backing each output node (two outputs may share one register
  /// after CSE; they then share one materialized tensor).
  const std::vector<int>& output_regs() const { return output_regs_; }
  /// Folded compile-time constants (1x1 tensors), indexed by ExprReg::konst.
  const std::vector<Tensor>& constants() const { return constants_; }

  int num_nodes() const { return num_nodes_; }      // graph nodes fused
  int num_slots() const { return num_slots_; }      // physical temp buffers
  int num_domains() const { return num_domains_; }  // cardinality domains
  int num_outputs() const { return static_cast<int>(output_nodes_.size()); }
  int num_folded() const { return num_folded_; }    // constant-folded instrs
  int num_cse_hits() const { return num_cse_; }     // instructions deduped

  /// \brief One-line-per-instruction listing for \explain and tests.
  std::string ToString() const;

 private:
  friend class ExprRunBuilder;
  std::vector<ExprInstr> instrs_;
  std::vector<ExprReg> regs_;
  std::vector<int> source_nodes_;
  std::vector<int> output_nodes_;
  std::vector<int> output_regs_;
  std::vector<Tensor> constants_;
  int num_nodes_ = 0;
  int num_slots_ = 0;
  int num_domains_ = 0;
  int num_folded_ = 0;
  int num_cse_ = 0;
};

/// \brief Runtime facts about a value materialized outside the candidate
/// node sequence, resolved by the caller (executors know the bound tensors;
/// pipelines learn streamed dtypes from a one-morsel probe).
struct ExprExternal {
  DType dtype = DType::kFloat64;
  bool scalar = false;          // bound as a 1-row broadcast
  bool single_col = true;       // cols == 1 (vector operands must be)
  bool driver_aligned = false;  // rows span the run's driver domain
  const Tensor* constant = nullptr;  // set for program constants (foldable)
};

/// \brief Resolves info for a node id the builder cannot see inside the
/// candidate sequence. Returning false marks the value unusable, which ends
/// any fused run that would consume it.
using ExprExternalFn = std::function<bool(int node_id, ExprExternal* info)>;

/// \brief The fusion plan for one candidate node sequence: disjoint maximal
/// runs, each compiled to an ExprProgram, plus the per-position lookup the
/// executor's morsel loop uses to dispatch.
struct ExprFusionPlan {
  struct Run {
    std::shared_ptr<const ExprProgram> program;
    size_t begin = 0;  // [begin, end) indices into the candidate sequence
    size_t end = 0;
  };
  std::vector<Run> runs;
  /// Per candidate position: index of the run *starting* there, else -1
  /// (positions covered mid-run and unfused positions both map to -1; the
  /// morsel loop dispatches at run starts and then skips to Run::end).
  std::vector<int> run_start;
  int num_fused_nodes = 0;
};

/// \brief Segments `nodes` (a topologically ordered chain, e.g. one
/// pipeline's ops or one StaticExecutor group) into maximal fusible runs and
/// compiles each. `required_outputs` lists node ids whose values must
/// materialize even when fused (pipeline outputs / escaping group nodes);
/// values read by candidates outside their own run materialize automatically.
/// `external` resolves operands produced outside the sequence.
///
/// Fusible ops: kBinary, kCompare, kLogical, kUnary, kCast, kWhere over
/// single-column operands, kCompress, and kNonzero over driver-domain masks.
/// Everything else (and any shape/dtype surprise) ends the current run; the
/// executor evaluates those nodes through the regular kernels.
ExprFusionPlan BuildExprFusionPlan(const TensorProgram& program,
                                   const std::vector<int>& nodes,
                                   const std::vector<int>& required_outputs,
                                   const ExprExternalFn& external);

}  // namespace tqp

#endif  // TQP_COMPILE_EXPR_PROGRAM_H_
