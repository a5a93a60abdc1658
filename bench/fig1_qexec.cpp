// FIG1 — reproduces Figure 1 of the paper: execution times for TPC-H Q6 and
// Q14 on (a) the Spark stand-in (row-oriented Volcano engine, CPU), (b) TQP
// on CPU (TorchScript-analog static executor), (c) TQP on the simulated GPU
// (calibrated P100 roofline clock, src/device/device.h), and (d) TQP on the
// web-analog bytecode interpreter.
//
// The paper reports, at SF 1: TQP-CPU ~3x faster than Spark on both queries,
// GPU 20x (Q6) and 6x (Q14) faster than Spark, web much slower (TXT1).
// Expected shape here: same ordering and comparable ratios.
//
// Usage: fig1_qexec [scale_factor]   (default 0.05)

#include <cstdio>

#include "baseline/volcano.h"
#include "bench_util.h"
#include "compile/compiler.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace tqp;  // NOLINT: bench binary

namespace {

struct Row {
  const char* system;
  double q6_sec;
  double q14_sec;
};

double RunTqp(const std::string& sql, const Catalog& catalog,
              ExecutorTarget target, DeviceKind device, double* simulated_sec) {
  QueryCompiler compiler;
  CompileOptions options;
  options.target = target;
  options.device = device;
  CompiledQuery query = compiler.CompileSql(sql, catalog, options).ValueOrDie();
  std::vector<Tensor> inputs = query.CollectInputs(catalog).ValueOrDie();
  Device* dev = GetDevice(device);
  double sim = 0;
  const double wall = bench::MedianTime([&] {
    dev->ResetClock();
    TQP_CHECK_OK(query.RunWithInputs(inputs).status());
    sim = dev->simulated_seconds();
  });
  if (simulated_sec != nullptr) *simulated_sec = sim;
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  const double sf = bench::ScaleFactorArg(argc, argv, 0.05);
  bench::PrintHeader("Figure 1: TPC-H Q6/Q14 across engines and backends");
  std::printf("scale factor %.3f (paper used SF 1; shape, not absolute values,"
              " is the target)\n", sf);
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = sf;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));
  const std::string q6 = tpch::QueryText(6).ValueOrDie();
  const std::string q14 = tpch::QueryText(14).ValueOrDie();

  std::vector<Row> rows;
  // (a) Spark stand-in: row-oriented Volcano, CPU.
  {
    VolcanoEngine volcano(&catalog);
    PlanPtr p6 = PlanQuery(q6, catalog).ValueOrDie();
    PlanPtr p14 = PlanQuery(q14, catalog).ValueOrDie();
    rows.push_back(
        {"spark-sim (volcano cpu)",
         bench::MedianTime([&] { TQP_CHECK_OK(volcano.Execute(p6).status()); }),
         bench::MedianTime([&] { TQP_CHECK_OK(volcano.Execute(p14).status()); })});
  }
  // (b) TQP on CPU (static/TorchScript analog).
  rows.push_back({"TQP cpu (static)",
                  RunTqp(q6, catalog, ExecutorTarget::kStatic, DeviceKind::kCpu,
                         nullptr),
                  RunTqp(q14, catalog, ExecutorTarget::kStatic, DeviceKind::kCpu,
                         nullptr)});
  // (c) TQP on the simulated GPU: report the simulated device clock.
  {
    double q6_sim = 0;
    double q14_sim = 0;
    RunTqp(q6, catalog, ExecutorTarget::kStatic, DeviceKind::kCudaSim, &q6_sim);
    RunTqp(q14, catalog, ExecutorTarget::kStatic, DeviceKind::kCudaSim, &q14_sim);
    rows.push_back({"TQP gpu (simulated P100)", q6_sim, q14_sim});
  }
  // (d) TQP web analog: bytecode interpreter (scalar, boxed) with the
  // modeled client-laptop/browser derating (see device.h).
  rows.push_back({"TQP web (interp, modeled)",
                  RunTqp(q6, catalog, ExecutorTarget::kInterp, DeviceKind::kCpu,
                         nullptr) *
                      kWebEnvironmentDerating,
                  RunTqp(q14, catalog, ExecutorTarget::kInterp, DeviceKind::kCpu,
                         nullptr) *
                      kWebEnvironmentDerating});

  std::printf("\n%-28s %12s %12s\n", "system", "Q6 (ms)", "Q14 (ms)");
  for (const Row& row : rows) {
    std::printf("%-28s %12.3f %12.3f\n", row.system, row.q6_sec * 1e3,
                row.q14_sec * 1e3);
  }
  const Row& spark = rows[0];
  std::printf("\nspeedup vs spark-sim (paper: cpu ~3x, gpu 20x/6x, web << 1x):\n");
  for (size_t i = 1; i < rows.size(); ++i) {
    std::printf("%-28s %11.2fx %11.2fx\n", rows[i].system,
                spark.q6_sec / rows[i].q6_sec, spark.q14_sec / rows[i].q14_sec);
  }
  return 0;
}
