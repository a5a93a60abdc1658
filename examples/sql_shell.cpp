// Interactive SQL shell over TQP: loads the TPC-H catalog at a chosen scale
// factor and compiles each typed statement into a tensor program, mirroring
// the paper's notebook experience (type a query, watch it run on the engine
// and backend of your choice).
//
// Usage: sql_shell [scale_factor]          (default 0.01)
//
// Shell commands (everything else is SQL):
//   \backend eager|static|interp|pipelined
//                                   choose the tensor executor (pipelined
//                                   streams morsels through fused operator
//                                   chains split at pipeline breakers)
//   \threads <n>                    pipelined backend: worker threads (0 = auto)
//   \morsel <rows>                  pipelined backend: rows per morsel (0 = auto)
//   \budget <mb>                    pipelined backend: per-query memory budget
//                                   in MiB — a query over budget spills cold
//                                   intermediates to disk instead of growing
//                                   resident memory (0 = TQP_MEMORY_BUDGET_MB
//                                   default / unlimited)
//   \pool                           shared thread-pool and buffer-pool stats,
//                                   current budget and session spill totals
//   \device cpu|gpu                 choose the device (gpu = simulator)
//   \engine tqp|volcano|columnar    choose the engine family (columnar is
//                                   the serial hash-operator baseline)
//   \plan <sql>                     print the optimized physical plan
//   \program <sql>                  print the compiled tensor program ops
//   \fusion on|off                  pipelined/static backends: single-pass
//                                   fused expression execution (ExprProgram
//                                   compiler + vectorized morsel interpreter)
//   \adaptive on|off                pipelined backend: adapt morsel size
//                                   toward a target per-morsel service time
//                                   (bounded; results bit-identical)
//   \partitions on|off              pipelined backend: evaluate
//                                   argsort (the breaker joins, group-bys
//                                   and ORDER BY lower to) through the
//                                   external merge sort — budget-aware run
//                                   counts, spillable runs (results
//                                   bit-identical)
//   \explain pipelines <sql>        print the pipeline step DAG for <sql>
//                                   (steps, dependency edges),
//                                   then run it once and show each
//                                   pipeline's fused expression runs with
//                                   instruction and register-slot counts
//   \timeout <ms>                   per-query deadline in milliseconds for
//                                   every later statement (0 = the
//                                   TQP_QUERY_TIMEOUT_MS default / none); an
//                                   expired query stops at the next morsel
//                                   boundary with a Deadline exceeded error
//   \submit <sql>                   run <sql> asynchronously through a
//                                   QueryScheduler and return to the prompt;
//                                   the result prints when it completes (or
//                                   at the next \wait)
//   \cancel                         cooperatively cancel the in-flight
//                                   \submit query (it stops within one
//                                   morsel/step boundary and its memory
//                                   returns to the pool)
//   \wait                           block until the in-flight \submit query
//                                   finishes and print its outcome
//   Ctrl-C (SIGINT)                 cancels the currently running query —
//                                   synchronous or \submit — instead of
//                                   killing the shell
//   \tables                         list catalog tables
//   \q <n>                          run TPC-H query n
//   \sessions <n> <sql>             run <sql> from n concurrent sessions
//                                   through the QueryScheduler (plan cache,
//                                   admission queue) and print per-query stats
//   \metrics                        process metrics registry in Prometheus
//                                   text format (query latency histograms,
//                                   scheduler/step/plan-cache counters,
//                                   thread-pool and buffer-pool gauges)
//   \trace <file> <sql>             run <sql> once with whole-lifecycle
//                                   tracing and write a chrome://tracing /
//                                   Perfetto JSON timeline (compile, steps,
//                                   morsels, spills) to <file>
//   EXPLAIN ANALYZE <sql>           run <sql> once under the tracer and print
//                                   the per-step wall-time breakdown
//   quit                            exit

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include <vector>

#include "baseline/columnar.h"
#include "baseline/volcano.h"
#include "common/cancel.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "compile/compiler.h"
#include "compile/pipeline.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/pipelined_executor.h"
#include "runtime/session.h"
#include "runtime/thread_pool.h"
#include "tensor/buffer_pool.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace tqp;  // NOLINT: example code

namespace {

struct ShellState {
  ExecutorTarget target = ExecutorTarget::kStatic;
  DeviceKind device = DeviceKind::kCpu;
  std::string engine = "tqp";
  int num_threads = 0;      // pipelined backend: 0 = process-wide pool
  int64_t morsel_rows = 0;  // pipelined backend: 0 = default morsel size
  bool expr_fusion = true;  // pipelined/static: fused expression execution
  bool adaptive_morsels = false;  // pipelined: service-time morsel sizing
  // pipelined: external merge sort at argsort breakers.
  bool partitioned_breakers = false;
  int64_t budget_mb = 0;    // per-query memory budget (0 = env default)
  // Per-query deadline for every later statement, milliseconds
  // (0 = TQP_QUERY_TIMEOUT_MS default / none).
  int64_t timeout_ms = 0;
  // Session-cumulative spill totals (across every query run so far).
  int64_t spilled_bytes_total = 0;
  int64_t spill_events_total = 0;
  // \submit machinery: a lazily (re)built scheduler plus the one in-flight
  // async query. The scheduler is only rebuilt while idle — its destructor
  // drains — so options changes apply from the next \submit onward.
  std::unique_ptr<runtime::QueryScheduler> scheduler;
  std::future<runtime::QueryOutcome> async_future;
  uint64_t async_query_id = 0;
  std::string async_sql;
};

// SIGINT routing: while a query runs, the handler cooperatively cancels it
// through this token instead of killing the shell. RequestCancel is one
// atomic CAS — async-signal-safe. At the prompt (null token) ^C is ignored.
std::atomic<CancellationToken*> g_sigint_token{nullptr};

// Set when ^C arrives with no synchronous query running — the \wait loop
// turns it into a scheduler Cancel of the in-flight \submit query.
std::atomic<int> g_sigint_flag{0};

extern "C" void HandleSigint(int) {
  CancellationToken* token = g_sigint_token.load(std::memory_order_acquire);
  if (token != nullptr) {
    token->RequestCancel(CancelReason::kUserCancelled);
    return;
  }
  g_sigint_flag.store(1, std::memory_order_release);
}

// Registers `token` as the SIGINT cancellation target for its scope.
class SigintCancelGuard {
 public:
  explicit SigintCancelGuard(CancellationToken* token) {
    g_sigint_token.store(token, std::memory_order_release);
  }
  ~SigintCancelGuard() {
    g_sigint_token.store(nullptr, std::memory_order_release);
  }
  SigintCancelGuard(const SigintCancelGuard&) = delete;
  SigintCancelGuard& operator=(const SigintCancelGuard&) = delete;
};

// Integer argument parser that reports instead of throwing (a typo in a
// shell command must not kill the session).
bool ParseInt64(const std::string& text, int64_t* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(begin, &end, 10);
  while (end != nullptr && *end == ' ') ++end;
  if (end == begin || (end != nullptr && *end != '\0') || errno == ERANGE) {
    std::printf("not a number: '%s'\n", text.c_str());
    return false;
  }
  *out = v;
  return true;
}

void RunSql(const std::string& sql, const Catalog& catalog, ShellState* state) {
  Stopwatch watch;
  Result<Table> result_or = Status::Internal("unset");
  double compile_ms = 0;
  QueryMemoryStats mem;
  bool have_mem = false;
  if (state->engine == "volcano") {
    VolcanoEngine volcano(&catalog);
    watch.Reset();
    result_or = volcano.ExecuteSql(sql);
  } else if (state->engine == "columnar") {
    ColumnarEngine columnar(&catalog);
    watch.Reset();
    result_or = columnar.ExecuteSql(sql);
  } else {
    QueryCompiler compiler;
    CompileOptions options;
    options.target = state->target;
    options.device = state->device;
    options.num_threads = state->num_threads;
    options.morsel_rows = state->morsel_rows;
    options.expr_fusion = state->expr_fusion;
    options.adaptive_morsels = state->adaptive_morsels;
    options.partitioned_breakers = state->partitioned_breakers;
    options.memory_budget_bytes = state->budget_mb << 20;
    options.deadline_ms = state->timeout_ms;
    watch.Reset();
    auto compiled_or = compiler.CompileSql(sql, catalog, options);
    compile_ms = watch.ElapsedSeconds() * 1e3;
    if (!compiled_or.ok()) {
      std::printf("error: %s\n", compiled_or.status().ToString().c_str());
      return;
    }
    if (state->device == DeviceKind::kCudaSim) {
      GetDevice(DeviceKind::kCudaSim)->ResetClock();
    }
    // Run under an explicit per-query scope so peak/spill stats are
    // reportable even when no budget is set.
    BufferPool::QueryScope memory_scope(
        BufferPool::ResolveMemoryBudget(state->budget_mb << 20));
    BufferPool::QueryScope::Attach memory_attach(&memory_scope);
    // Per-query cancellation: Ctrl-C signals this token (instead of killing
    // the shell) and \timeout arms its deadline; executors poll it at every
    // morsel/step boundary through the ambient attach.
    CancellationToken token;
    const int64_t deadline_ms = ResolveDeadlineMs(state->timeout_ms);
    if (deadline_ms > 0) token.SetDeadlineAfterMs(deadline_ms);
    CancellationToken::Attach token_attach(&token);
    SigintCancelGuard sigint_guard(&token);
    watch.Reset();
    result_or = compiled_or.ValueOrDie().Run(catalog);
    mem = memory_scope.stats();
    have_mem = true;
    state->spilled_bytes_total += mem.spilled_bytes;
    state->spill_events_total += mem.spill_events;
  }
  const double exec_ms = watch.ElapsedSeconds() * 1e3;
  if (!result_or.ok()) {
    std::printf("error: %s\n", result_or.status().ToString().c_str());
    return;
  }
  Table result = std::move(result_or).ValueOrDie();
  // Print at most 20 rows (ToString already truncates large tables).
  std::printf("%s", result.ToString(20).c_str());
  std::printf("(%lld rows)  compile %.2f ms, execute %.2f ms",
              static_cast<long long>(result.num_rows()), compile_ms, exec_ms);
  if (state->engine == "tqp" && state->device == DeviceKind::kCudaSim) {
    std::printf(", simulated GPU clock %.3f ms",
                GetDevice(DeviceKind::kCudaSim)->simulated_seconds() * 1e3);
  }
  std::printf("\n");
  if (have_mem && mem.spill_events > 0) {
    std::printf("memory: peak %.2f MiB under a %.1f MiB budget; spilled "
                "%.2f MiB in %lld evictions (%lld faults back in)\n",
                static_cast<double>(mem.peak_live_bytes) / (1 << 20),
                static_cast<double>(mem.budget_bytes) / (1 << 20),
                static_cast<double>(mem.spilled_bytes) / (1 << 20),
                static_cast<long long>(mem.spill_events),
                static_cast<long long>(mem.fault_events));
  }
}

void PrintPlanOrProgram(const std::string& sql, const Catalog& catalog,
                        bool program, const ShellState& state) {
  auto plan_or = PlanQuery(sql, catalog);
  if (!plan_or.ok()) {
    std::printf("error: %s\n", plan_or.status().ToString().c_str());
    return;
  }
  if (!program) {
    std::printf("%s", plan_or.ValueOrDie()->ToString().c_str());
    return;
  }
  QueryCompiler compiler;
  CompileOptions options;
  options.target = state.target;
  options.device = state.device;
  auto compiled_or = compiler.Compile(plan_or.ValueOrDie(), options);
  if (!compiled_or.ok()) {
    std::printf("error: %s\n", compiled_or.status().ToString().c_str());
    return;
  }
  std::printf("%s", compiled_or.ValueOrDie().program().ToString().c_str());
}

// Compiles <sql> for the pipelined backend and prints its step DAG: the
// schedule with dependency edges (which steps can overlap).
void ExplainPipelines(const std::string& sql, const Catalog& catalog,
                      const ShellState& state) {
  QueryCompiler compiler;
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.device = DeviceKind::kCpu;
  options.num_threads = state.num_threads;
  options.morsel_rows = state.morsel_rows;
  options.expr_fusion = state.expr_fusion;
  options.adaptive_morsels = state.adaptive_morsels;
  options.partitioned_breakers = state.partitioned_breakers;
  auto compiled_or = compiler.CompileSql(sql, catalog, options);
  if (!compiled_or.ok()) {
    std::printf("error: %s\n", compiled_or.status().ToString().c_str());
    return;
  }
  const CompiledQuery& compiled = compiled_or.ValueOrDie();
  const PipelinePlan plan = BuildPipelinePlan(compiled.program());
  std::printf("%s", plan.ToString(compiled.program()).c_str());
  std::printf(
      "%zu steps (%zu pipelines, %d streamed ops), %d dependency edges, "
      "%d roots can start immediately\n",
      plan.schedule.size(), plan.pipelines.size(), plan.num_streamed_nodes(),
      plan.num_step_edges(), plan.num_root_steps());
  if (!state.expr_fusion) {
    std::printf("expression fusion: off (\\fusion on to enable)\n");
    return;
  }
  // Expression fusion compiles lazily against runtime dtypes, so run the
  // query once, then report each pipeline's fused runs and register counts.
  auto result_or = compiled.Run(catalog);
  if (!result_or.ok()) {
    std::printf("execution error: %s\n", result_or.status().ToString().c_str());
    return;
  }
  const auto* pipelined =
      static_cast<const PipelinedExecutor*>(compiled.executor());
  std::printf("\nexpression fusion (after one run):\n%s",
              pipelined->FusionReport().c_str());
}

CompileOptions OptionsFromState(const ShellState& state) {
  CompileOptions options;
  options.target = state.target;
  options.device = state.device;
  options.num_threads = state.num_threads;
  options.morsel_rows = state.morsel_rows;
  options.expr_fusion = state.expr_fusion;
  options.adaptive_morsels = state.adaptive_morsels;
  options.partitioned_breakers = state.partitioned_breakers;
  options.memory_budget_bytes = state.budget_mb << 20;
  options.deadline_ms = state.timeout_ms;
  return options;
}

// Runs <sql> once with whole-lifecycle tracing attached and writes the
// Chrome/Perfetto timeline JSON to <file>.
void RunTrace(const std::string& file, const std::string& sql,
              const Catalog& catalog, const ShellState& state) {
  obs::TraceSession session;
  Result<Table> result_or = Status::Internal("unset");
  {
    obs::TraceContext ctx(&session, session.NextQueryId());
    obs::TraceSpan root("query", "query");
    root.SetDetail(sql);
    QueryCompiler compiler;
    auto compiled_or = [&] {
      obs::TraceSpan span("compile", "compile");
      return compiler.CompileSql(sql, catalog, OptionsFromState(state));
    }();
    if (!compiled_or.ok()) {
      std::printf("error: %s\n", compiled_or.status().ToString().c_str());
      return;
    }
    BufferPool::QueryScope memory_scope(
        BufferPool::ResolveMemoryBudget(state.budget_mb << 20));
    BufferPool::QueryScope::Attach memory_attach(&memory_scope);
    result_or = [&] {
      obs::TraceSpan span("query", "execute");
      return compiled_or.ValueOrDie().Run(catalog);
    }();
  }  // context detached: every thread's buffered events are flushed
  if (!result_or.ok()) {
    std::printf("error: %s\n", result_or.status().ToString().c_str());
    return;
  }
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) {
    std::printf("error: cannot open %s for writing\n", file.c_str());
    return;
  }
  const std::string json = session.ToChromeTrace("tqp_shell");
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("%lld rows; %zu trace events -> %s (open in chrome://tracing "
              "or ui.perfetto.dev)\n",
              static_cast<long long>(result_or.ValueOrDie().num_rows()),
              session.num_events(), file.c_str());
}

// EXPLAIN ANALYZE <sql>: one traced run, per-step breakdown.
void RunExplainAnalyze(const std::string& sql, const Catalog& catalog,
                       const ShellState& state) {
  if (state.engine != "tqp") {
    std::printf("EXPLAIN ANALYZE is only available for the tqp engine\n");
    return;
  }
  auto result_or = obs::ExplainAnalyze(sql, catalog, OptionsFromState(state));
  if (!result_or.ok()) {
    std::printf("error: %s\n", result_or.status().ToString().c_str());
    return;
  }
  std::printf("%s", result_or.ValueOrDie().text.c_str());
}

// Fans one statement out from `n` concurrent QuerySessions sharing a
// scheduler: the first execution compiles, the rest hit the LRU plan cache.
void RunSessions(int n, const std::string& sql, const Catalog& catalog,
                 const ShellState& state) {
  runtime::SchedulerOptions options;
  options.compile.target = state.target;
  options.compile.device = state.device;
  options.compile.num_threads = state.num_threads;
  options.compile.morsel_rows = state.morsel_rows;
  options.compile.partitioned_breakers = state.partitioned_breakers;
  options.compile.memory_budget_bytes = state.budget_mb << 20;
  options.compile.deadline_ms = state.timeout_ms;
  runtime::QueryScheduler scheduler(&catalog, options);
  std::vector<std::future<runtime::QueryOutcome>> futures;
  futures.reserve(static_cast<size_t>(n));
  Stopwatch watch;
  for (int i = 0; i < n; ++i) {
    auto future_or = scheduler.Submit(sql);
    if (!future_or.ok()) {
      std::printf("session %d rejected: %s\n", i,
                  future_or.status().ToString().c_str());
      continue;
    }
    futures.push_back(std::move(future_or).ValueOrDie());
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    runtime::QueryOutcome outcome = futures[i].get();
    if (!outcome.status.ok()) {
      std::printf("session %zu error: %s\n", i, outcome.status.ToString().c_str());
      continue;
    }
    std::printf(
        "session %zu: %lld rows, queued %.2f ms, compile %.2f ms%s, exec %.2f "
        "ms, peak mem %.2f MiB%s\n",
        i, static_cast<long long>(outcome.stats.result_rows),
        static_cast<double>(outcome.stats.queue_nanos) / 1e6,
        static_cast<double>(outcome.stats.compile_nanos) / 1e6,
        outcome.stats.cache_hit ? " (plan cache hit)" : "",
        static_cast<double>(outcome.stats.exec_nanos) / 1e6,
        static_cast<double>(outcome.stats.peak_memory_bytes) / (1 << 20),
        outcome.stats.spilled_bytes > 0 ? " (spilled)" : "");
  }
  const auto counters = scheduler.counters();
  std::printf(
      "total %.2f ms wall; admitted %lld, rejected %lld, failed %lld; "
      "plan cache %lld hits / %lld misses; spilled %.2f MiB across %lld "
      "queries\n",
      watch.ElapsedSeconds() * 1e3, static_cast<long long>(counters.admitted),
      static_cast<long long>(counters.rejected),
      static_cast<long long>(counters.failed),
      static_cast<long long>(scheduler.plan_cache().hits()),
      static_cast<long long>(scheduler.plan_cache().misses()),
      static_cast<double>(counters.spilled_bytes) / (1 << 20),
      static_cast<long long>(counters.queries_spilled));
  // Process-wide latency distribution from the metrics registry (covers
  // every scheduler this process has run, this fan-out included).
  auto* registry = obs::MetricsRegistry::Global();
  obs::Histogram* latency =
      registry->FindHistogram("tqp_query_latency_seconds");
  if (latency != nullptr && latency->count() > 0) {
    std::printf("query latency (process-wide): p50 %.2f ms, p95 %.2f ms, "
                "p99 %.2f ms over %lld queries\n",
                latency->Percentile(0.5) * 1e3, latency->Percentile(0.95) * 1e3,
                latency->Percentile(0.99) * 1e3,
                static_cast<long long>(latency->count()));
  }
  obs::Counter* steps = registry->FindCounter("tqp_steps_executed_total");
  if (steps != nullptr) {
    std::printf("execution-DAG steps executed (process-wide): %lld\n",
                static_cast<long long>(steps->value()));
  }
}

// Shared-resource report: the process-wide cross-query thread pool that every
// pipelined executor and QueryScheduler lands on, the buffer pool
// recycling morsel scratch across operators and queries, and the per-query
// memory governance layer (budget + spill) above it.
void PrintPoolStats(const ShellState& state) {
  runtime::ThreadPool* pool = runtime::ThreadPool::Global();
  std::printf("shared thread pool: %d worker threads (process-wide; all\n"
              "  sessions, schedulers and pipelined executors with\n"
              "  threads=0 share it)\n",
              pool->num_threads());
  std::printf("  tasks executed %lld (%lld stolen from another worker)\n",
              static_cast<long long>(pool->tasks_executed()),
              static_cast<long long>(pool->steals()));
  const BufferPoolStats stats = BufferPool::Global()->stats();
  const auto mb = [](int64_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  };
  std::printf("buffer pool: cap %.1f MiB cached\n",
              mb(BufferPool::Global()->max_cached_bytes()));
  std::printf("  allocations %lld (hits %lld, misses %lld, bypass %lld)\n",
              static_cast<long long>(stats.allocations),
              static_cast<long long>(stats.pool_hits),
              static_cast<long long>(stats.pool_misses),
              static_cast<long long>(stats.bypass));
  std::printf("  recycle hit rate %.1f%% of %lld pooled requests "
              "(%lld total allocations)\n",
              100.0 * stats.recycle_hit_rate(),
              static_cast<long long>(stats.allocations),
              static_cast<long long>(stats.total_allocations()));
  std::printf("  recycled %.1f MiB total; cached now %.2f MiB\n",
              mb(stats.recycled_bytes), mb(stats.cached_bytes));
  std::printf("  live %.2f MiB, peak live %.2f MiB\n", mb(stats.live_bytes),
              mb(stats.peak_live_bytes));
  const int64_t budget =
      BufferPool::ResolveMemoryBudget(state.budget_mb << 20);
  if (budget > 0) {
    std::printf("per-query memory budget: %.1f MiB (%s); over-budget queries "
                "spill cold intermediates to disk\n",
                mb(budget),
                state.budget_mb > 0 ? "\\budget" : "TQP_MEMORY_BUDGET_MB");
  } else {
    std::printf("per-query memory budget: unlimited (\\budget <mb> to cap; "
                "TQP_MEMORY_BUDGET_MB sets the default)\n");
  }
  std::printf("  spilled this session: %.2f MiB in %lld evictions\n",
              mb(state.spilled_bytes_total),
              static_cast<long long>(state.spill_events_total));
  obs::Histogram* latency = obs::MetricsRegistry::Global()->FindHistogram(
      "tqp_query_latency_seconds");
  if (latency != nullptr && latency->count() > 0) {
    std::printf("scheduled query latency: p50 %.2f ms, p99 %.2f ms over %lld "
                "queries (\\metrics for the full registry)\n",
                latency->Percentile(0.5) * 1e3, latency->Percentile(0.99) * 1e3,
                static_cast<long long>(latency->count()));
  }
}

// Prints the finished \submit query's outcome (result table or the
// structured termination/error status).
void PrintAsyncOutcome(ShellState* state) {
  runtime::QueryOutcome outcome = state->async_future.get();
  std::printf("[async #%llu] %s\n",
              static_cast<unsigned long long>(state->async_query_id),
              state->async_sql.c_str());
  if (!outcome.status.ok()) {
    std::printf("[async #%llu] %s%s\n",
                static_cast<unsigned long long>(state->async_query_id),
                outcome.status.ToString().c_str(),
                outcome.termination_reason != CancelReason::kNone
                    ? (std::string(" (reason: ") +
                       CancelReasonName(outcome.termination_reason) + ")")
                          .c_str()
                    : "");
    return;
  }
  std::printf("%s", outcome.table.ToString(20).c_str());
  std::printf("[async #%llu] %lld rows, queued %.2f ms, compile %.2f ms%s, "
              "exec %.2f ms\n",
              static_cast<unsigned long long>(state->async_query_id),
              static_cast<long long>(outcome.stats.result_rows),
              static_cast<double>(outcome.stats.queue_nanos) / 1e6,
              static_cast<double>(outcome.stats.compile_nanos) / 1e6,
              outcome.stats.cache_hit ? " (plan cache hit)" : "",
              static_cast<double>(outcome.stats.exec_nanos) / 1e6);
}

// Collects the in-flight \submit query: non-blocking at the prompt (prints
// only if it already finished), blocking for \wait — where ^C cooperatively
// cancels the query through the scheduler instead of killing the shell.
void CollectAsync(ShellState* state, bool block) {
  if (!state->async_future.valid()) {
    if (block) std::printf("no async query in flight (\\submit <sql>)\n");
    return;
  }
  if (block) {
    g_sigint_flag.store(0, std::memory_order_release);
    while (state->async_future.wait_for(std::chrono::milliseconds(50)) !=
           std::future_status::ready) {
      if (g_sigint_flag.exchange(0, std::memory_order_acq_rel) != 0) {
        if (state->scheduler->Cancel(state->async_query_id)) {
          std::printf("^C — cancelling query #%llu...\n",
                      static_cast<unsigned long long>(state->async_query_id));
        }
      }
    }
  } else if (state->async_future.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
    return;
  }
  PrintAsyncOutcome(state);
  state->async_future = {};
  state->async_query_id = 0;
  state->async_sql.clear();
}

}  // namespace

int main(int argc, char** argv) {
  const double sf = argc > 1 ? std::stod(argv[1]) : 0.01;
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = sf;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));
  std::printf("TQP shell — TPC-H catalog at SF %.3f. Type \\tables, SQL, or quit.\n",
              sf);
  // ^C cancels the running query (sync or \submit), never the shell.
  std::signal(SIGINT, HandleSigint);

  ShellState state;
  std::string line;
  while (true) {
    CollectAsync(&state, /*block=*/false);
    std::printf("tqp[%s/%s/%s]> ", state.engine.c_str(),
                ExecutorTargetName(state.target),
                state.device == DeviceKind::kCpu ? "cpu" : "gpu-sim");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "quit" || line == "exit" || line == "\\q!") break;
    if (line.rfind("\\backend ", 0) == 0) {
      const std::string b = line.substr(9);
      if (b == "eager") state.target = ExecutorTarget::kEager;
      else if (b == "static") state.target = ExecutorTarget::kStatic;
      else if (b == "interp") state.target = ExecutorTarget::kInterp;
      else if (b == "pipelined") state.target = ExecutorTarget::kPipelined;
      else std::printf("unknown backend '%s'\n", b.c_str());
      continue;
    }
    if (line == "\\pool") {
      PrintPoolStats(state);
      continue;
    }
    if (line == "\\metrics") {
      std::printf("%s",
                  obs::MetricsRegistry::Global()->PrometheusText().c_str());
      continue;
    }
    if (line.rfind("\\trace ", 0) == 0) {
      std::istringstream args(line.substr(7));
      std::string file;
      std::string sql;
      args >> file;
      std::getline(args, sql);
      const std::string_view trimmed = TrimView(sql);
      if (file.empty() || trimmed.empty()) {
        std::printf("usage: \\trace <file> <sql>\n");
        continue;
      }
      RunTrace(file, std::string(trimmed), catalog, state);
      continue;
    }
    if (line.rfind("\\budget ", 0) == 0) {
      int64_t mb = 0;
      if (!ParseInt64(line.substr(8), &mb)) continue;
      // Upper bound keeps every later `mb << 20` free of signed overflow.
      constexpr int64_t kMaxBudgetMb = int64_t{1} << 30;  // 1 PiB
      if (mb < 0 || mb > kMaxBudgetMb) {
        std::printf("budget must be in [0, %lld] MiB (0 = env default / "
                    "unlimited)\n",
                    static_cast<long long>(kMaxBudgetMb));
        continue;
      }
      state.budget_mb = mb;
      std::printf("per-query memory budget = %lld MiB%s\n",
                  static_cast<long long>(mb),
                  mb == 0 ? " (TQP_MEMORY_BUDGET_MB default / unlimited)"
                          : "");
      continue;
    }
    if (line.rfind("\\timeout ", 0) == 0) {
      int64_t ms = 0;
      if (!ParseInt64(line.substr(9), &ms)) continue;
      // Same ceiling as ResolveDeadlineMs: ~12 days keeps ms -> ns arming
      // free of overflow.
      if (ms < 0 || ms > (int64_t{1} << 40) / 1000) {
        std::printf("timeout must be in [0, %lld] ms (0 = "
                    "TQP_QUERY_TIMEOUT_MS default / none)\n",
                    static_cast<long long>((int64_t{1} << 40) / 1000));
        continue;
      }
      state.timeout_ms = ms;
      std::printf("per-query timeout = %lld ms%s\n",
                  static_cast<long long>(ms),
                  ms == 0 ? " (TQP_QUERY_TIMEOUT_MS default / none)" : "");
      continue;
    }
    if (line.rfind("\\submit ", 0) == 0) {
      // Own the text: a view into line.substr(8)'s temporary would dangle
      // before the scheduler compiles it.
      const std::string sql(TrimView(std::string_view(line).substr(8)));
      if (sql.empty()) {
        std::printf("usage: \\submit <sql>\n");
        continue;
      }
      if (state.async_future.valid()) {
        std::printf("query #%llu still in flight — \\wait or \\cancel first\n",
                    static_cast<unsigned long long>(state.async_query_id));
        continue;
      }
      // Idle, so the old scheduler drains instantly; a fresh one picks up
      // the current backend/budget/timeout options.
      runtime::SchedulerOptions sched_options;
      sched_options.compile = OptionsFromState(state);
      state.scheduler = std::make_unique<runtime::QueryScheduler>(
          &catalog, sched_options);
      auto future_or = state.scheduler->Submit(
          sql, runtime::QueryPriority::kNormal, &state.async_query_id);
      if (!future_or.ok()) {
        std::printf("rejected: %s\n", future_or.status().ToString().c_str());
        continue;
      }
      state.async_future = std::move(future_or).ValueOrDie();
      state.async_sql = sql;
      std::printf("query #%llu submitted (\\wait to block, \\cancel to "
                  "stop)\n",
                  static_cast<unsigned long long>(state.async_query_id));
      continue;
    }
    if (line == "\\cancel") {
      if (!state.async_future.valid()) {
        std::printf("no async query in flight (\\submit <sql>)\n");
        continue;
      }
      if (state.scheduler->Cancel(state.async_query_id)) {
        std::printf("cancel requested for query #%llu (stops at the next "
                    "morsel/step boundary)\n",
                    static_cast<unsigned long long>(state.async_query_id));
      } else {
        std::printf("query #%llu already completed\n",
                    static_cast<unsigned long long>(state.async_query_id));
      }
      CollectAsync(&state, /*block=*/true);
      continue;
    }
    if (line == "\\wait") {
      CollectAsync(&state, /*block=*/true);
      continue;
    }
    if (line.rfind("\\fusion ", 0) == 0) {
      const std::string f = line.substr(8);
      if (f == "on" || f == "off") {
        state.expr_fusion = f == "on";
        std::printf("expression fusion %s\n", f.c_str());
      } else {
        std::printf("usage: \\fusion on|off\n");
      }
      continue;
    }
    if (line.rfind("\\adaptive ", 0) == 0) {
      const std::string a = line.substr(10);
      if (a == "on" || a == "off") {
        state.adaptive_morsels = a == "on";
        std::printf("adaptive morsel sizing %s\n", a.c_str());
      } else {
        std::printf("usage: \\adaptive on|off\n");
      }
      continue;
    }
    if (line.rfind("\\partitions ", 0) == 0) {
      const std::string p = line.substr(12);
      if (p == "on" || p == "off") {
        state.partitioned_breakers = p == "on";
        std::printf("partitioned pipeline breakers %s\n", p.c_str());
      } else {
        std::printf("usage: \\partitions on|off\n");
      }
      continue;
    }
    if (line.rfind("\\threads ", 0) == 0) {
      int64_t n = 0;
      if (!ParseInt64(line.substr(9), &n)) continue;
      if (n < 0 || n > 256) {
        std::printf("threads must be in [0, 256]\n");
        continue;
      }
      state.num_threads = static_cast<int>(n);
      std::printf("pipelined backend threads = %d%s\n", state.num_threads,
                  state.num_threads == 0 ? " (process-wide pool)" : "");
      continue;
    }
    if (line.rfind("\\morsel ", 0) == 0) {
      if (!ParseInt64(line.substr(8), &state.morsel_rows)) continue;
      std::printf("pipelined backend morsel rows = %lld%s\n",
                  static_cast<long long>(state.morsel_rows),
                  state.morsel_rows == 0 ? " (default)" : "");
      continue;
    }
    if (line.rfind("\\sessions ", 0) == 0) {
      std::istringstream args(line.substr(10));
      int n = 0;
      std::string sql;
      args >> n;
      std::getline(args, sql);
      if (n <= 0 || sql.empty()) {
        std::printf("usage: \\sessions <n> <sql>\n");
        continue;
      }
      RunSessions(n, sql, catalog, state);
      continue;
    }
    if (line.rfind("\\device ", 0) == 0) {
      const std::string d = line.substr(8);
      if (d == "cpu") state.device = DeviceKind::kCpu;
      else if (d == "gpu") state.device = DeviceKind::kCudaSim;
      else std::printf("unknown device '%s'\n", d.c_str());
      continue;
    }
    if (line.rfind("\\engine ", 0) == 0) {
      const std::string e = line.substr(8);
      if (e == "tqp" || e == "volcano" || e == "columnar") state.engine = e;
      else std::printf("unknown engine '%s'\n", e.c_str());
      continue;
    }
    if (line == "\\tables") {
      for (const std::string& name : catalog.TableNames()) {
        Table t = catalog.GetTable(name).ValueOrDie();
        std::printf("  %-10s %8lld rows, %d columns\n", name.c_str(),
                    static_cast<long long>(t.num_rows()), t.num_columns());
      }
      continue;
    }
    if (line.rfind("\\plan ", 0) == 0) {
      PrintPlanOrProgram(line.substr(6), catalog, /*program=*/false, state);
      continue;
    }
    if (line.rfind("\\program ", 0) == 0) {
      PrintPlanOrProgram(line.substr(9), catalog, /*program=*/true, state);
      continue;
    }
    if (line.rfind("\\explain pipelines ", 0) == 0) {
      ExplainPipelines(line.substr(19), catalog, state);
      continue;
    }
    if (line.rfind("\\q ", 0) == 0) {
      int64_t qn = 0;
      if (!ParseInt64(line.substr(3), &qn)) continue;
      const int q = static_cast<int>(qn);
      auto sql_or = tpch::QueryText(q);
      if (!sql_or.ok()) {
        std::printf("error: %s\n", sql_or.status().ToString().c_str());
        continue;
      }
      std::printf("%s\n", sql_or.ValueOrDie().c_str());
      RunSql(sql_or.ValueOrDie(), catalog, &state);
      continue;
    }
    constexpr std::string_view kExplainAnalyze = "explain analyze ";
    if (line.size() > kExplainAnalyze.size() &&
        EqualsIgnoreCase(std::string_view(line).substr(0, kExplainAnalyze.size()),
                         kExplainAnalyze)) {
      RunExplainAnalyze(line.substr(kExplainAnalyze.size()), catalog, state);
      continue;
    }
    RunSql(line, catalog, &state);
  }
  // Exiting with a \submit query in flight: cancel it so the scheduler's
  // draining destructor returns promptly instead of finishing the query.
  if (state.async_future.valid()) {
    state.scheduler->Cancel(state.async_query_id);
    state.async_future.wait();
  }
  return 0;
}
