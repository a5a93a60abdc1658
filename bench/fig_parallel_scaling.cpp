// Parallel-runtime scaling: serial executors vs the pipelined
// morsel-streaming PipelinedExecutor on TPC-H at increasing thread counts.
// Emits JSON (one object) on stdout so the perf trajectory can be tracked
// per commit; human summary goes to stderr.
//
// Each timed run also reports a peak-allocation proxy from the process-wide
// BufferPool (peak live tensor bytes during the run): node-at-a-time
// execution materializes every intermediate, pipelined execution holds
// morsel-sized scratch plus pipeline outputs — the materialization win the
// streaming refactor is after. The pipelined backend is measured both with
// DAG overlap (independent pipeline steps scheduled concurrently, eager
// value release) and with the sequential schedule walk (`"overlap": false`),
// so the overlap-vs-peak-alloc trade is tracked per commit.
//
// With TQP_MEMORY_BUDGET_MB set, every measured run executes under that
// per-query budget: peak_alloc_mb then reports the capped *resident*
// working set and the spilled_mb column what each run moved to disk to
// stay inside it (out-of-core results are bit-identical by construction).
//
// Usage: fig_parallel_scaling [scale_factor] [num_queries]
//   scale_factor  default 0.05
//   num_queries   run only the first N of {Q1, Q3, Q6, Q18} (CI smoke uses 1)
//
// Q18 is the breaker-bound row: a multi-join plus a large group-by, so its
// wall time is dominated by pipeline breakers rather than streamed scans —
// the configuration the external merge sort targets (also measured with
// partitioned_breakers on).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "compile/compiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace tqp;  // NOLINT: bench binary

namespace {

using RunResult = bench::PoolTimedRun;

RunResult MeasureQuery(const CompiledQuery& query, const std::vector<Tensor>& inputs,
                       const bench::TimingProtocol& protocol) {
  return bench::MeasureWithPool(
      [&] { TQP_CHECK_OK(query.RunWithInputs(inputs).status()); }, protocol);
}

RunResult MeasureTarget(QueryCompiler& compiler, const Catalog& catalog,
                        const std::string& sql, ExecutorTarget target, int threads,
                        bool overlap, bool expr_fusion, bool partitioned,
                        const std::vector<Tensor>& inputs,
                        const bench::TimingProtocol& protocol) {
  CompileOptions options;
  options.target = target;
  options.num_threads = threads;
  options.pipeline_overlap = overlap;
  options.expr_fusion = expr_fusion;
  options.partitioned_breakers = partitioned;
  CompiledQuery query = compiler.CompileSql(sql, catalog, options).ValueOrDie();
  return MeasureQuery(query, inputs, protocol);
}

/// One measured pipelined configuration (a JSON row per thread count).
struct BackendSpec {
  bool overlap;
  bool expr_fusion;
  bool partitioned = false;
};

}  // namespace

int main(int argc, char** argv) {
  const double sf = bench::ScaleFactorArg(argc, argv, 0.05);
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = sf;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));

  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(stderr, "parallel scaling, SF %.3f, %u hardware threads\n", sf, hw);

  std::vector<int> queries = {1, 3, 6, 18};
  if (argc > 2) {
    const size_t n = static_cast<size_t>(std::strtoul(argv[2], nullptr, 10));
    if (n >= 1 && n < queries.size()) queries.resize(n);
  }
  std::vector<int> thread_counts = {1, 2, 4, 8};
  const bench::TimingProtocol protocol{3, 5};

  QueryCompiler compiler;
  std::printf("{\n  \"bench\": \"fig_parallel_scaling\",\n");
  std::printf("  \"scale_factor\": %.4f,\n", sf);
  std::printf("  \"hardware_threads\": %u,\n", hw);
  std::printf("  \"memory_budget_mb\": %.1f,\n",
              static_cast<double>(BufferPool::ResolveMemoryBudget(0)) /
                  (1024.0 * 1024.0));
  std::printf("  \"queries\": [\n");
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const int q = queries[qi];
    const std::string sql = tpch::QueryText(q).ValueOrDie();

    CompileOptions serial_options;  // static = fused serial TorchScript analog
    CompiledQuery serial_query =
        compiler.CompileSql(sql, catalog, serial_options).ValueOrDie();
    const std::vector<Tensor> inputs =
        serial_query.CollectInputs(catalog).ValueOrDie();
    const RunResult serial = MeasureQuery(serial_query, inputs, protocol);

    const RunResult eager = MeasureTarget(compiler, catalog, sql,
                                          ExecutorTarget::kEager, 0,
                                          /*overlap=*/true, /*expr_fusion=*/true,
                                          /*partitioned=*/false, inputs,
                                          protocol);

    std::printf("    {\"query\": \"Q%d\", \"static_serial_ms\": %.4f, "
                "\"eager_serial_ms\": %.4f, \"eager_peak_alloc_mb\": %.3f,\n"
                "     \"backends\": [",
                q, serial.seconds * 1e3, eager.seconds * 1e3,
                eager.peak_alloc_mb);
    double best_speedup = 0;
    bool first = true;
    const BackendSpec specs[] = {
        {false, true},       // sequential schedule walk
        {true, true},        // DAG overlap
        {true, false},       // expression fusion off
        {true, true, true},  // partitioned breakers
    };
    for (const BackendSpec& spec : specs) {
      for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
        const RunResult r = MeasureTarget(compiler, catalog, sql,
                                          ExecutorTarget::kPipelined,
                                          thread_counts[ti], spec.overlap,
                                          spec.expr_fusion, spec.partitioned,
                                          inputs, protocol);
        const double speedup = eager.seconds / r.seconds;
        best_speedup = std::max(best_speedup, speedup);
        std::printf("%s\n      {\"backend\": \"pipelined\", \"threads\": %d, "
                    "\"overlap\": %s, \"expr_fusion\": %s, "
                    "\"partitioned_breakers\": %s, \"ms\": %.4f, "
                    "\"speedup_vs_eager\": %.3f, \"peak_alloc_mb\": %.3f, "
                    "\"allocs\": %lld, \"recycle_hit_rate\": %.3f, "
                    "\"spilled_mb\": %.3f, \"spill_events\": %lld}",
                    first ? "" : ",", thread_counts[ti],
                    spec.overlap ? "true" : "false",
                    spec.expr_fusion ? "true" : "false",
                    spec.partitioned ? "true" : "false", r.seconds * 1e3,
                    speedup, r.peak_alloc_mb,
                    static_cast<long long>(r.allocs), r.recycle_hit_rate,
                    r.spilled_mb, static_cast<long long>(r.spill_events));
        first = false;
        std::fprintf(stderr,
                     "  Q%d pipelined%s%s%s @ %d threads: %.3f ms (%.2fx vs "
                     "eager %.3f ms), peak alloc %.2f MiB (eager %.2f MiB), "
                     "%lld allocs (%.0f%% recycled), spilled %.2f MiB\n",
                     q, spec.overlap ? "" : " (no overlap)",
                     spec.expr_fusion ? "" : " (no fusion)",
                     spec.partitioned ? " (partitioned)" : "",
                     thread_counts[ti], r.seconds * 1e3, speedup,
                     eager.seconds * 1e3, r.peak_alloc_mb, eager.peak_alloc_mb,
                     static_cast<long long>(r.allocs),
                     r.recycle_hit_rate * 100.0, r.spilled_mb);
      }
    }
    std::printf("], \"best_speedup_vs_eager\": %.3f}%s\n", best_speedup,
                qi + 1 < queries.size() ? "," : "");
  }
  std::printf("  ],\n");

  // Tracing overhead guard: one pipelined configuration of Q1 measured with
  // tracing off and with every run recorded into a live TraceSession. The
  // CI job asserts the ratio stays near 1 (the disabled path is a TLS read;
  // the enabled path is buffered span recording).
  {
    const std::string sql = tpch::QueryText(1).ValueOrDie();
    CompileOptions options;
    options.target = ExecutorTarget::kPipelined;
    options.num_threads = 4;
    CompiledQuery query = compiler.CompileSql(sql, catalog, options).ValueOrDie();
    const std::vector<Tensor> inputs = query.CollectInputs(catalog).ValueOrDie();
    const RunResult off = MeasureQuery(query, inputs, protocol);
    obs::TraceSession session;
    const RunResult on = bench::MeasureWithPool(
        [&] {
          obs::TraceContext ctx(&session, session.NextQueryId());
          obs::TraceSpan root("query", "query");
          TQP_CHECK_OK(query.RunWithInputs(inputs).status());
        },
        protocol);
    const double ratio = on.seconds / off.seconds;
    std::printf("  \"trace_overhead\": {\"query\": \"Q1\", "
                "\"backend\": \"pipelined\", \"threads\": 4, "
                "\"off_ms\": %.4f, \"on_ms\": %.4f, \"ratio\": %.4f, "
                "\"events_recorded\": %zu},\n",
                off.seconds * 1e3, on.seconds * 1e3, ratio,
                session.num_events());
    std::fprintf(stderr,
                 "  trace overhead: Q1 pipelined @4 threads %.3f ms off / "
                 "%.3f ms on (ratio %.3f, %zu events)\n",
                 off.seconds * 1e3, on.seconds * 1e3, ratio,
                 session.num_events());
    // TQP_TRACE_FILE=<path>: dump the recorded timeline (CI uploads it as an
    // artifact so any run's cross-thread interleaving can be inspected).
    const char* trace_file = std::getenv("TQP_TRACE_FILE");
    if (trace_file != nullptr && *trace_file != '\0') {
      std::FILE* f = std::fopen(trace_file, "w");
      if (f != nullptr) {
        const std::string json = session.ToChromeTrace("fig_parallel_scaling");
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "  trace written to %s\n", trace_file);
      } else {
        std::fprintf(stderr, "  cannot open TQP_TRACE_FILE=%s\n", trace_file);
      }
    }
  }

  // Snapshot of the process metrics registry (counters the whole bench run
  // accumulated: morsels, steps, plan-cache traffic, pool gauges).
  std::printf("  \"metrics\": %s\n}\n",
              obs::MetricsRegistry::Global()->JsonSnapshot().c_str());
  return 0;
}
