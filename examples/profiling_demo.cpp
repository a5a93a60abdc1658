// Demo scenario 1 (paper §3.1): integration with data-science tooling.
//  (1) ingest a dataframe-like frame (numeric columns zero-copy),
//  (2) compile and run a TPC-H query over it,
//  (3) re-run with a trace session attached and inspect the per-operator
//      runtime breakdown (Figure 2) and the exported artifacts:
//      a chrome://tracing timeline and the Graphviz executor graph
//      (the TensorBoard stand-ins).

#include <cstdio>
#include <fstream>
#include <string>

#include "compile/compiler.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace tqp;  // NOLINT: example code

int main() {
  // (1) Generate the lineitem data (the notebook loads it via Pandas; the
  // generator hands us the same columnar tables).
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = 0.01;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));
  std::printf("lineitem: %lld rows\n",
              static_cast<long long>(
                  catalog.GetTable("lineitem").ValueOrDie().num_rows()));

  // (2) Compile and execute TPC-H Q6.
  const std::string sql = tpch::QueryText(6).ValueOrDie();
  QueryCompiler compiler;
  CompiledQuery query = compiler.CompileSql(sql, catalog).ValueOrDie();
  Table result = query.Run(catalog).ValueOrDie();
  std::printf("Q6 result:\n%s\n", result.ToString().c_str());

  // (3) Re-execute under a trace session: every executed operator records
  // an "op" span, folded here into the per-operator breakdown.
  CompileOptions options;
  options.target = ExecutorTarget::kEager;  // per-op granularity
  CompiledQuery profiled = compiler.CompileSql(sql, catalog, options).ValueOrDie();
  obs::TraceSession session;
  {
    obs::TraceContext ctx(&session, session.NextQueryId());
    TQP_CHECK_OK(profiled.Run(catalog).status());
  }

  const std::string breakdown =
      obs::RenderOpBreakdown(obs::FoldOpSpans(session.events()));
  std::printf("runtime breakdown (Figure 2 view):\n%s\n", breakdown.c_str());

  std::ofstream trace("/tmp/tqp_profile_trace.json");
  trace << session.ToChromeTrace("q6-demo");
  std::ofstream dot("/tmp/tqp_q6_executor.dot");
  dot << profiled.ToDot("q6");
  std::printf("artifacts: /tmp/tqp_profile_trace.json (chrome://tracing), "
              "/tmp/tqp_q6_executor.dot (graphviz)\n");
  return 0;
}
