// TXT3 — backs the paper's claim that "TQP is generic enough to support the
// TPC-H benchmark": runs every supported query through the full stack on all
// engines, verifying results against the Volcano oracle and reporting
// runtimes (the would-be "all queries" table of a full systems paper).
//
// Usage: tbl_tpch [scale_factor]   (default 0.02)

#include <cstdio>

#include "baseline/columnar.h"
#include "baseline/volcano.h"
#include "bench_util.h"
#include "compile/compiler.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace tqp;  // NOLINT: bench binary

int main(int argc, char** argv) {
  const double sf = bench::ScaleFactorArg(argc, argv, 0.02);
  bench::PrintHeader("TXT3: supported TPC-H queries across engines");
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = sf;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));
  std::printf("scale factor %.3f\n\n", sf);
  std::printf("%-5s %6s %14s %14s %14s %16s %12s %8s\n", "query", "rows",
              "volcano (ms)", "tqp cpu (ms)", "tqp pipe (ms)",
              "tqp gpu-sim(ms)", "columnar(ms)", "correct");

  QueryCompiler compiler;
  const bench::TimingProtocol quick{2, 3};
  for (int q : tpch::SupportedQueries()) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    VolcanoEngine volcano(&catalog);
    PlanPtr plan = PlanQuery(sql, catalog).ValueOrDie();
    Table oracle;
    const double volcano_sec = bench::MedianTime(
        [&] { oracle = volcano.Execute(plan).ValueOrDie(); }, quick);

    CompileOptions cpu_options;
    CompiledQuery cpu_query = compiler.CompileSql(sql, catalog, cpu_options)
                                  .ValueOrDie();
    std::vector<Tensor> inputs = cpu_query.CollectInputs(catalog).ValueOrDie();
    Table result;
    const double tqp_sec = bench::MedianTime(
        [&] { result = cpu_query.RunWithInputs(inputs).ValueOrDie(); }, quick);

    CompileOptions pipe_options;
    pipe_options.target = ExecutorTarget::kPipelined;
    CompiledQuery pipe_query = compiler.CompileSql(sql, catalog, pipe_options)
                                   .ValueOrDie();
    Table pipe_result;
    const double pipe_sec = bench::MedianTime(
        [&] { pipe_result = pipe_query.RunWithInputs(inputs).ValueOrDie(); },
        quick);

    CompileOptions gpu_options;
    gpu_options.device = DeviceKind::kCudaSim;
    CompiledQuery gpu_query = compiler.CompileSql(sql, catalog, gpu_options)
                                  .ValueOrDie();
    Device* dev = GetDevice(DeviceKind::kCudaSim);
    dev->ResetClock();
    TQP_CHECK_OK(gpu_query.Run(catalog).status());
    const double gpu_sim_sec = dev->simulated_seconds();

    ColumnarEngine columnar(&catalog);
    Table columnar_result;
    const double columnar_sec = bench::MedianTime(
        [&] { columnar_result = columnar.ExecuteSql(sql).ValueOrDie(); }, quick);

    const bool ok = TablesEqualUnordered(result, oracle).ok() &&
                    TablesEqualUnordered(pipe_result, oracle).ok() &&
                    TablesEqualUnordered(columnar_result, oracle).ok();
    std::printf("Q%-4d %6lld %14.3f %14.3f %14.3f %16.3f %12.3f %8s\n", q,
                static_cast<long long>(oracle.num_rows()), volcano_sec * 1e3,
                tqp_sec * 1e3, pipe_sec * 1e3, gpu_sim_sec * 1e3,
                columnar_sec * 1e3, ok ? "yes" : "NO");
  }
  return 0;
}
