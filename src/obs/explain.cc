#include "obs/explain.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "compile/pipeline.h"
#include "graph/op_type.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"

namespace tqp::obs {

namespace {

/// One rendered breakdown row.
struct Row {
  std::string what;
  int64_t calls = 0;
  int64_t nanos = 0;
  int64_t rows = 0;
  int64_t bytes = 0;
};

void AppendPadded(std::ostringstream& os, const std::string& s, size_t width,
                  bool right_align) {
  const size_t pad = s.size() < width ? width - s.size() : 1;
  if (right_align) os << std::string(pad, ' ') << s;
  else os << s << std::string(pad, ' ');
}

/// Short description of one schedule step ("n5 sort" / "pipeline#2 [...]").
/// `notes` holds run-time annotations per node id (a group_ids path, an
/// argsort's identity path).
std::string DescribeStep(const TensorProgram& program, const PipelinePlan& plan,
                         size_t step_index,
                         const std::map<int64_t, std::string>& notes) {
  if (step_index >= plan.schedule.size()) return "step";
  const PipelineStep& step = plan.schedule[step_index];
  if (step.serial_node >= 0) {
    const OpNode& node = program.node(step.serial_node);
    std::string out = "n";
    out += std::to_string(node.id);
    out += ' ';
    out += OpTypeName(node.type);
    if (!node.label.empty()) out += " (" + node.label + ")";
    const auto note = notes.find(node.id);
    if (note != notes.end()) out += " [" + note->second + "]";
    return out;
  }
  const Pipeline& p = plan.pipelines[static_cast<size_t>(step.pipeline)];
  std::string out = "pipeline#";
  out += std::to_string(step.pipeline);
  out += " [";
  const size_t show = std::min<size_t>(p.nodes.size(), 4);
  for (size_t i = 0; i < show; ++i) {
    if (i > 0) out += ' ';
    out += OpTypeName(program.node(p.nodes[i].id).type);
  }
  if (p.nodes.size() > show) {
    out += " +" + std::to_string(p.nodes.size() - show);
  }
  out += ']';
  return out;
}

int64_t EventArg(const TraceEvent& e, const char* name, int64_t missing = 0) {
  for (int i = 0; i < e.num_args; ++i) {
    if (e.arg_names[i] != nullptr && std::string_view(e.arg_names[i]) == name) {
      return e.arg_values[i];
    }
  }
  return missing;
}

}  // namespace

std::vector<OpBreakdownRow> FoldOpSpans(const std::vector<TraceEvent>& events) {
  std::map<std::string, OpBreakdownRow> by_op;
  for (const TraceEvent& e : events) {
    if (e.phase == TraceEvent::Phase::kInstant) continue;
    if (std::string_view(e.category) != "op") continue;
    OpBreakdownRow& r = by_op[e.name];
    ++r.calls;
    r.nanos += e.dur_nanos;
    r.output_bytes += EventArg(e, "output_bytes");
  }
  std::vector<OpBreakdownRow> rows;
  rows.reserve(by_op.size());
  for (auto& [name, r] : by_op) {
    r.op = name;
    rows.push_back(std::move(r));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const OpBreakdownRow& a, const OpBreakdownRow& b) {
                     return a.nanos > b.nanos;
                   });
  return rows;
}

std::string RenderOpBreakdown(const std::vector<OpBreakdownRow>& rows,
                              int top_k) {
  int64_t total_nanos = 0;
  for (const OpBreakdownRow& r : rows) total_nanos += r.nanos;
  const double total = static_cast<double>(std::max<int64_t>(1, total_nanos));
  const size_t shown =
      top_k > 0 ? std::min(rows.size(), static_cast<size_t>(top_k))
                : rows.size();
  std::ostringstream os;
  os << "operator              calls   total(ms)   share   out(MB)\n";
  os << std::string(57, '-') << "\n";
  for (size_t i = 0; i < shown; ++i) {
    const OpBreakdownRow& r = rows[i];
    AppendPadded(os, r.op, 22, false);
    AppendPadded(os, std::to_string(r.calls), 8, false);
    AppendPadded(os, FormatDouble(static_cast<double>(r.nanos) / 1e6, 3), 12,
                 false);
    AppendPadded(os,
                 FormatDouble(100.0 * static_cast<double>(r.nanos) / total, 1) +
                     "%",
                 8, false);
    os << FormatDouble(static_cast<double>(r.output_bytes) / 1e6, 2) << "\n";
  }
  return os.str();
}

Result<ExplainAnalyzeResult> ExplainAnalyze(const std::string& sql,
                                            const Catalog& catalog,
                                            const CompileOptions& options) {
  ExplainAnalyzeResult out;
  TraceSession session;

  // The query's memory scope: the one ambient on the calling thread (a
  // caller's or scheduler's), else one attached here with the options'
  // budget. The header reports its peak and spilled bytes, counted in the
  // pool's size classes as the budget counts them.
  BufferPool::QueryScope* scope = BufferPool::QueryScope::Current();
  std::optional<BufferPool::QueryScope> own_scope;
  if (scope == nullptr) {
    own_scope.emplace(
        BufferPool::ResolveMemoryBudget(options.memory_budget_bytes));
    scope = &*own_scope;
  }
  const int64_t spilled_before = scope->stats().spilled_bytes;

  // The context lives in a nested scope: its detach flushes this thread's
  // buffered spans into the session, which must happen before the
  // aggregation below snapshots session.events().
  std::optional<CompiledQuery> plan;
  {
    BufferPool::QueryScope::Attach attach(scope);
    TraceContext ctx(&session, session.NextQueryId());
    QueryCompiler compiler;
    Stopwatch compile_timer;
    auto plan_or = [&] {
      TraceSpan span("compile", "compile");
      return compiler.CompileSql(sql, catalog, options);
    }();
    out.compile_nanos = compile_timer.ElapsedNanos();
    TQP_RETURN_NOT_OK(plan_or.status());
    plan.emplace(std::move(plan_or).ValueOrDie());

    Stopwatch exec_timer;
    auto table_or = [&] {
      TraceSpan span("query", "execute");
      return plan->Run(catalog);
    }();
    out.wall_nanos = exec_timer.ElapsedNanos();
    TQP_RETURN_NOT_OK(table_or.status());
    out.result_rows = table_or.ValueOrDie().num_rows();
  }

  // Fold the recorded spans into breakdown rows: schedule steps (the
  // pipelined backend's unit) when there are any, else op spans.
  const std::vector<TraceEvent> events = session.events();
  std::vector<Row> rows;
  bool by_step = false;
  int64_t morsels = 0;
  int64_t morsel_rows = 0;  // size chosen by the last pipeline run
  int64_t spills = 0;
  int64_t faults = 0;
  for (const TraceEvent& e : events) {
    if (e.phase != TraceEvent::Phase::kInstant &&
        std::string_view(e.category) == "morsel") {
      ++morsels;
    }
    if (e.phase != TraceEvent::Phase::kInstant &&
        std::string_view(e.category) == "pipeline") {
      const int64_t mr = EventArg(e, "morsel_rows");
      if (mr > 0) morsel_rows = mr;
    }
    if (e.phase == TraceEvent::Phase::kInstant &&
        std::string_view(e.category) == "memory") {
      if (std::string_view(e.name) == "spill") ++spills;
      if (std::string_view(e.name) == "fault") ++faults;
    }
  }

  // Partitioned pipeline-breaker spans (the external sort): per-kind run
  // totals and bytes spilled through the run pages.
  struct BreakerRow {
    int64_t calls = 0;
    int64_t partitions = 0;
    int64_t spilled_bytes = 0;
  };
  std::map<std::string, BreakerRow> breaker_rows;
  for (const TraceEvent& e : events) {
    if (e.phase == TraceEvent::Phase::kInstant) continue;
    if (std::string_view(e.category) != "breaker") continue;
    BreakerRow& br = breaker_rows[e.name];
    ++br.calls;
    br.partitions += EventArg(e, "partitions");
    br.spilled_bytes += EventArg(e, "spilled_bytes");
  }

  std::map<int64_t, Row> step_rows;
  for (const TraceEvent& e : events) {
    if (e.phase == TraceEvent::Phase::kInstant) continue;
    if (std::string_view(e.category) != "step") continue;
    Row& r = step_rows[EventArg(e, "step")];
    ++r.calls;
    r.nanos += e.dur_nanos;
    r.rows += EventArg(e, "rows");
    r.bytes += EventArg(e, "bytes");
  }
  if (!step_rows.empty()) {
    by_step = true;
    // The path each group_ids node took: its op span's `domain` arg is the
    // dense domain size, or -1 for the sort path. An argsort whose `ordered`
    // arg is 1 found its keys in order and returned the identity.
    std::map<int64_t, std::string> notes;
    for (const TraceEvent& e : events) {
      if (e.phase == TraceEvent::Phase::kInstant ||
          std::string_view(e.category) != "op") {
        continue;
      }
      const std::string_view name(e.name);
      if (name == OpTypeName(OpType::kGroupIds)) {
        const int64_t domain = EventArg(e, "domain", -2);
        if (domain < -1) continue;
        notes[EventArg(e, "node", -1)] =
            domain < 0 ? "sort" : "dense " + std::to_string(domain);
      } else if (name == OpTypeName(OpType::kArgsortRows) &&
                 EventArg(e, "ordered") == 1) {
        notes[EventArg(e, "node", -1)] = "ordered";
      }
    }
    const PipelinePlan pipeline_plan = BuildPipelinePlan(plan->program());
    for (auto& [index, r] : step_rows) {
      r.what = DescribeStep(plan->program(), pipeline_plan,
                            static_cast<size_t>(index), notes);
      rows.push_back(std::move(r));
    }
  } else {
    for (OpBreakdownRow& op : FoldOpSpans(events)) {
      Row r;
      r.what = std::move(op.op);
      r.calls = op.calls;
      r.nanos = op.nanos;
      r.bytes = op.output_bytes;
      rows.push_back(std::move(r));
    }
  }
  for (const Row& r : rows) out.step_nanos += r.nanos;

  const double wall_ms = static_cast<double>(out.wall_nanos) / 1e6;
  std::ostringstream os;
  os << "EXPLAIN ANALYZE  target=" << ExecutorTargetName(options.target);
  os << "  wall=" << FormatDouble(wall_ms, 3) << " ms"
     << "  compile=" << FormatDouble(static_cast<double>(out.compile_nanos) / 1e6, 3)
     << " ms  rows=" << out.result_rows;
  const QueryMemoryStats mem = scope->stats();
  auto mib = [](int64_t bytes) {
    return FormatDouble(static_cast<double>(bytes) / (1024.0 * 1024.0), 2);
  };
  os << "  peak=" << mib(mem.peak_live_bytes) << " MiB  spilled="
     << mib(mem.spilled_bytes - spilled_before) << " MiB\n";
  os << (by_step ? "step" : "    ")
     << "   total(ms)   share    calls        rows     out(MB)  "
     << (by_step ? "what" : "operator") << "\n";
  os << std::string(78, '-') << "\n";
  const double wall = static_cast<double>(std::max<int64_t>(1, out.wall_nanos));
  int index = 0;
  for (const Row& r : rows) {
    std::ostringstream line;
    AppendPadded(line, by_step ? std::to_string(index) : std::string("-"), 4,
                 true);
    AppendPadded(line, FormatDouble(static_cast<double>(r.nanos) / 1e6, 3), 12,
                 true);
    AppendPadded(line,
                 FormatDouble(100.0 * static_cast<double>(r.nanos) / wall, 1) +
                     "%",
                 8, true);
    AppendPadded(line, std::to_string(r.calls), 9, true);
    AppendPadded(line, std::to_string(r.rows), 12, true);
    AppendPadded(line, FormatDouble(static_cast<double>(r.bytes) / 1e6, 2), 12,
                 true);
    line << "  " << r.what;
    os << line.str() << "\n";
    ++index;
  }
  os << "span sum " << FormatDouble(static_cast<double>(out.step_nanos) / 1e6, 3)
     << " ms = "
     << FormatDouble(100.0 * static_cast<double>(out.step_nanos) / wall, 1)
     << "% of wall";
  if (morsels > 0) os << "; morsels=" << morsels;
  if (morsel_rows > 0) os << "; morsel_rows=" << morsel_rows;
  if (spills > 0 || faults > 0) {
    os << "; spills=" << spills << " faults=" << faults;
  }
  for (const auto& [name, br] : breaker_rows) {
    os << "\nbreaker " << name << ": calls=" << br.calls
       << " partitions=" << br.partitions << " spilled="
       << FormatDouble(static_cast<double>(br.spilled_bytes) / 1e6, 2)
       << " MB";
  }
  os << "\n";
  out.text = os.str();
  return out;
}

}  // namespace tqp::obs
