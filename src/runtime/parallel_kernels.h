#ifndef TQP_RUNTIME_PARALLEL_KERNELS_H_
#define TQP_RUNTIME_PARALLEL_KERNELS_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "graph/program.h"
#include "kernels/kernel_types.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor.h"

namespace tqp::runtime {

/// \brief Executor-provided callbacks for partitioned pipeline-breaker
/// evaluation. Lives on the executor's stack for the duration of one step.
struct BreakerHooks {
  /// Releases the executor's value-slot handle for `operand` once a breaker
  /// has fully consumed it (e.g. after external-sort run formation), so the
  /// input buffer frees before the breaker's output allocates. Returns true
  /// when the slot was actually released. Must be safe to call from the
  /// step's calling thread.
  std::function<bool(int operand)> release_input;
};

/// \brief Shared knobs for morsel-parallel kernel execution.
struct ParallelContext {
  ThreadPool* pool = nullptr;  // null => serial
  /// Rows per morsel; <= 0 selects DefaultMorselRows().
  int64_t morsel_rows = 0;
  /// Kernels on fewer rows than this run serially (fan-out overhead would
  /// dominate).
  int64_t min_parallel_rows = 8192;
  /// Evaluate kArgsortRows — the pipeline breaker TQP's joins and ORDER BYs
  /// lower to — and the sort path of kGroupIds through the external merge
  /// sort in src/operators/partitioned. Results stay bit-identical; runs are
  /// spillable and sized from the ambient query budget.
  bool partitioned_breakers = false;
  /// Optional executor hooks, only consulted when partitioned_breakers is on.
  const BreakerHooks* breaker_hooks = nullptr;

  bool parallel() const { return pool != nullptr && pool->num_threads() > 1; }
};

/// \brief The context's morsel size with the global default applied.
int64_t MorselRows(const ParallelContext& ctx);

/// \brief True when `rows` is worth fanning out under `ctx`.
bool ShouldParallelize(const ParallelContext& ctx, int64_t rows);

/// Morsel-parallel kernels for the pipeline breakers: the ops a pipeline
/// cannot stream, so they run whole-node. Streamable ops (elementwise,
/// selection, gather, search, hashing, matmul, strings) have no copy here:
/// PipelinedExecutor runs them morsel-parallel inside pipelines, and a
/// whole-node streamable op evaluates serially.
///
/// Every function in this header is *exact*: its result is bit-identical to
/// the corresponding serial kernel in src/kernels, for any thread count and
/// morsel size. Decompositions that cannot be made exact (floating-point
/// sums, whole-input or segmented, and prefix scans) are not parallelized —
/// they delegate to the serial kernel. An order-preserving fan-out of
/// segmented float sums (each segment's additions replayed in serial row
/// order) was measured slower than the serial kernel at 4, 1,000 and 150,000
/// groups, so it was removed.

/// \brief Full reduction. Exact-parallel cases: min/max (order-free),
/// count, and sums of *integer* inputs (double accumulation of integers is
/// exact below 2^53, so the morsel merge order cannot change the result).
/// Floating-point sums fall back to the serial kernel.
Result<Tensor> ParallelReduceAll(const ParallelContext& ctx, ReduceOpKind op,
                                 const Tensor& a);

/// \brief Segmented reduction with per-worker partial accumulator arrays
/// merged at a barrier (the classic morsel-driven aggregation shape).
/// Count/min/max and integer sums merge partials; float sums run the serial
/// kernel, which adds each segment's rows in row order.
Result<Tensor> ParallelSegmentedReduce(const ParallelContext& ctx, ReduceOpKind op,
                                       const Tensor& values,
                                       const Tensor& segment_ids,
                                       int64_t num_segments);

/// \brief Parallel stable argsort over kernels::StableArgsortRange: radix
/// passes histogram and scatter chunks concurrently (offsets in (digit,
/// chunk) order); the comparison fallback sorts chunks concurrently and
/// merges them pairwise. A stable sort's permutation is unique, so this
/// equals std::stable_sort's answer exactly. `*ordered`, when given, is set
/// true when the rows already were in order (the identity, in one pass).
Result<Tensor> ParallelArgsortRows(const ParallelContext& ctx, const Tensor& a,
                                   bool ascending, bool* ordered = nullptr);

/// \brief Evaluates one tensor-program op whole: argsort and group_ids sort
/// through the breaker argsort (external merge sort under partitioned
/// breakers), the reductions fan out through the kernels above, and every
/// other op runs the serial EvalNode — concat_rows included: a pipeline's
/// own morsel chunks assemble in PipelinedExecutor, and the one whole-node
/// concat (a LEFT JOIN's matched and unmatched sides) runs the serial
/// kernel. Drop-in replacement for EvalNode: bit-identical results.
Result<Tensor> ParallelEvalNode(const ParallelContext& ctx,
                                const TensorProgram& program, const OpNode& node,
                                const std::vector<Tensor>& values);

}  // namespace tqp::runtime

#endif  // TQP_RUNTIME_PARALLEL_KERNELS_H_
