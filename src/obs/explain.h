#ifndef TQP_OBS_EXPLAIN_H_
#define TQP_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "compile/compiler.h"
#include "obs/trace.h"
#include "plan/catalog.h"

namespace tqp::obs {

/// \brief The "op" spans of one operator kind, folded: how often it ran, its
/// summed span time and the bytes its outputs took. Every executor records
/// one "op" span per executed node (a StaticExecutor fused group records one
/// span under its last node's type), so this is the per-operator view of a
/// traced run on any backend.
struct OpBreakdownRow {
  std::string op;
  int64_t calls = 0;
  int64_t nanos = 0;
  int64_t output_bytes = 0;
};

/// \brief Folds the "op" spans in `events` by name, descending by time.
std::vector<OpBreakdownRow> FoldOpSpans(const std::vector<TraceEvent>& events);

/// \brief Renders the paper's Figure-2 runtime breakdown (operator, calls,
/// total(ms), share, out(MB)) of the first `top_k` rows (0 = all). The share
/// is of the summed time over all rows.
std::string RenderOpBreakdown(const std::vector<OpBreakdownRow>& rows,
                              int top_k = 10);

/// \brief EXPLAIN ANALYZE output: the query is compiled and executed once
/// under a private TraceSession, and the recorded spans are folded into a
/// per-step (pipelined backend) or per-operator (node-at-a-time backends)
/// wall-time breakdown.
struct ExplainAnalyzeResult {
  std::string text;          // rendered report (the shell prints this)
  int64_t wall_nanos = 0;    // plan execution wall time
  int64_t compile_nanos = 0; // SQL -> executable
  /// Sum of the aggregated step/op span durations. Under a serial schedule
  /// this tracks `wall_nanos` closely (the gap is scheduling overhead the
  /// spans do not cover); under DAG overlap it may exceed the wall.
  int64_t step_nanos = 0;
  int64_t result_rows = 0;
};

/// \brief Compiles and runs `sql` with tracing forced on, then renders the
/// per-step breakdown. `options` picks the backend exactly as for a normal
/// run. The run records into a private session that replaces, for its
/// duration, any trace context ambient on the calling thread. Compile and
/// run charge the BufferPool::QueryScope ambient on the calling thread, or
/// one attached for the call with `options.memory_budget_bytes`; the header
/// reports that scope's peak charged MiB and the MiB the run spilled.
Result<ExplainAnalyzeResult> ExplainAnalyze(const std::string& sql,
                                            const Catalog& catalog,
                                            const CompileOptions& options);

}  // namespace tqp::obs

#endif  // TQP_OBS_EXPLAIN_H_
