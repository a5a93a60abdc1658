// FIG2 — reproduces Figure 2 of the paper: per-operator runtime breakdown of
// a selected query (TPC-H Q6), folded from the run's "op" trace spans (the
// PyTorch Profiler / TensorBoard stand-in). Also writes the chrome://tracing
// JSON to /tmp/tqp_q6_trace.json — open it in a Chromium browser or Perfetto
// for the TensorBoard-style timeline view.
//
// Usage: fig2_breakdown [scale_factor]   (default 0.05)

#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.h"
#include "compile/compiler.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace tqp;  // NOLINT: bench binary

int main(int argc, char** argv) {
  const double sf = bench::ScaleFactorArg(argc, argv, 0.05);
  bench::PrintHeader("Figure 2: runtime breakdown of top operators (TPC-H Q6)");
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = sf;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));

  CompileOptions options;
  options.target = ExecutorTarget::kEager;  // per-op view, like the paper's
  QueryCompiler compiler;
  CompiledQuery query =
      compiler.CompileSql(tpch::QueryText(6).ValueOrDie(), catalog, options)
          .ValueOrDie();
  // Warm up, then trace one run.
  for (int i = 0; i < 3; ++i) TQP_CHECK_OK(query.Run(catalog).status());
  obs::TraceSession session;
  {
    obs::TraceContext ctx(&session, session.NextQueryId());
    TQP_CHECK_OK(query.Run(catalog).status());
  }

  const std::vector<obs::OpBreakdownRow> rows =
      obs::FoldOpSpans(session.events());
  int64_t calls = 0;
  int64_t nanos = 0;
  for (const obs::OpBreakdownRow& r : rows) {
    calls += r.calls;
    nanos += r.nanos;
  }
  std::printf("scale factor %.3f, %lld op executions, %.3f ms total\n\n", sf,
              static_cast<long long>(calls), static_cast<double>(nanos) / 1e6);
  std::printf("%s\n", obs::RenderOpBreakdown(rows).c_str());

  const std::string trace = session.ToChromeTrace("tqp-q6");
  std::ofstream out("/tmp/tqp_q6_trace.json");
  out << trace;
  std::printf("chrome trace written to /tmp/tqp_q6_trace.json (%zu bytes)\n",
              trace.size());
  return 0;
}
