#ifndef TQP_COMPILE_PIPELINE_H_
#define TQP_COMPILE_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/program.h"

namespace tqp {

/// Pipeline splitting: the compiler-side half of the pipelined morsel-
/// streaming backend. A tensor program is partitioned into *pipelines* —
/// maximal chains of morsel-decomposable ops (scan-aligned elementwise work,
/// filters, gathers, probes) — separated by *pipeline breakers* (sorts,
/// reductions, prefix scans, concatenations), exactly as in morsel-driven
/// query engines. The PipelinedExecutor (src/runtime) then streams morsels
/// through each pipeline's fused chain without materializing any per-node
/// intermediate, while breakers still evaluate whole (with intra-op
/// parallelism).
///
/// Splitting is purely structural: it tracks a symbolic row cardinality per
/// node (union-find over "these two nodes provably have the same row count")
/// so that cardinality-*changing* ops (compress, nonzero, repeat_interleave)
/// can stay inside a pipeline — a filter's survivors keep streaming into the
/// projection without a materialization point — while anything whose morsel
/// decomposition would not be bit-identical to serial execution breaks the
/// pipeline.

/// \brief How one operand of a streamed node is bound when evaluating a
/// morsel.
enum class OperandBinding : int8_t {
  kStreamed,  // produced by this pipeline during the same morsel
  kSliced,    // materialized tensor, row-aligned with the driver: slice [b, e)
  kWhole,     // materialized tensor passed in full (build sides, weights,
              // scalars/broadcasts)
};

/// \brief One streamed op node plus the per-operand binding plan.
struct PipelineNode {
  int id = -1;
  std::vector<OperandBinding> bindings;  // parallel to OpNode::inputs
};

/// \brief A maximal streamable chain. The *driver* cardinality is the row
/// count of the sliced sources; morsels are row ranges of that domain.
struct Pipeline {
  std::vector<PipelineNode> nodes;  // topological order
  /// Materialized nodes sliced per morsel (deduped, in first-use order).
  /// Their runtime row count defines the driver domain; a source whose rows
  /// match neither the driver nor 1 (broadcast) triggers the serial fallback.
  std::vector<int> sliced_sources;
  /// Materialized nodes passed whole into morsel evaluation (deduped).
  std::vector<int> whole_sources;
  /// Nodes whose full value must exist after the pipeline runs (consumed by
  /// later steps or marked program outputs), in node-id order.
  std::vector<int> outputs;
  /// True when the chain contains an offset-corrected op (nonzero,
  /// arange_like, head): those assume the morsel offset is a global row
  /// position, which only holds when every sliced source really spans the
  /// driver domain — a runtime 1-row broadcast source forces the serial
  /// fallback for such pipelines.
  bool has_offset_op = false;
};

/// \brief One unit of the execution schedule: either a single node evaluated
/// whole (breakers, constants, statically-scalar expressions) or a pipeline.
///
/// Steps carry explicit dependency edges, so the schedule is a DAG, not just
/// a list: a step depends exactly on the steps that materialize the values it
/// consumes, and steps with disjoint dependency chains (e.g. the build sides
/// of a multi-join query) are independent and may execute concurrently.
struct PipelineStep {
  int serial_node = -1;  // >= 0: evaluate this node whole
  int pipeline = -1;     // >= 0: stream plan.pipelines[pipeline]
  /// True when the serial node is a pipeline breaker joins and group-bys
  /// lower into (argsort, segmented reduction); \explain pipelines marks
  /// it. Under ExecOptions::partitioned_breakers the argsort steps run the
  /// external merge sort in src/operators/partitioned.
  bool breaker = false;
  /// Schedule indices of earlier steps whose products this step consumes
  /// (sorted, deduped). Empty => the step is a DAG root and can start
  /// immediately.
  std::vector<int> deps;
  /// Materialized node ids this step reads (deduped): a serial step's
  /// inputs, or a pipeline's sliced + whole sources.
  std::vector<int> reads;
  /// Node ids whose *last* consumer under the sequential schedule order is
  /// this step (program outputs excluded; a produced-but-never-read node is
  /// released by its own producer step). A serial walk releases exactly
  /// these sets after the step; the DAG executor reaches the same release
  /// points through per-node consumer refcounts, which stay correct when
  /// consumers overlap out of schedule order.
  std::vector<int> releases;
};

/// \brief The full streaming plan for one tensor program.
struct PipelinePlan {
  std::vector<Pipeline> pipelines;
  std::vector<PipelineStep> schedule;  // topological execution order
  /// node id -> schedule index that materializes the node's value; -1 for
  /// program inputs and for streamed nodes that never materialize.
  std::vector<int> producer_step;

  int num_streamed_nodes() const;
  /// \brief Dependency edges in the step DAG (sum of per-step dep counts).
  int num_step_edges() const;
  /// \brief Steps with no dependencies (can start immediately).
  int num_root_steps() const;
  /// Human-readable listing (one line per step; pipelines show their chain;
  /// each step shows its dependency edges and last-release set).
  std::string ToString(const TensorProgram& program) const;
};

/// \brief True when `type` has an exact morsel decomposition given aligned
/// inputs (its streamed output chunks concatenate to the serial result,
/// bit-for-bit).
bool IsStreamableOp(OpType type);

/// \brief Splits `program` into pipelines at pipeline breakers.
PipelinePlan BuildPipelinePlan(const TensorProgram& program);

}  // namespace tqp

#endif  // TQP_COMPILE_PIPELINE_H_
