// TXT2 — reproduces the paper's §1 claim: "on Q6 and Q14 at scale factor 1,
// TQP is ... more than 4x faster than BlazingSQL on GPU".
//
// Both systems run on the simulated P100 (src/device/device.h): TQP executes its
// compiled program (fused pointwise chains, program-level planning); the
// BlazingSQL stand-in is the columnar engine that launches one kernel per
// expression node and materializes every intermediate — the same
// kernel-granularity gap the paper measures. Reported numbers are the
// simulated device clock.
//
// Usage: txt2_gpu_baseline [scale_factor]   (default 0.05)

#include <cstdio>

#include "baseline/columnar.h"
#include "bench_util.h"
#include "compile/compiler.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace tqp;  // NOLINT: bench binary

namespace {

double TqpGpuSeconds(const std::string& sql, const Catalog& catalog) {
  QueryCompiler compiler;
  CompileOptions options;
  options.target = ExecutorTarget::kStatic;
  options.device = DeviceKind::kCudaSim;
  options.charge_transfers = false;  // data resident on device, as in the paper
  CompiledQuery query = compiler.CompileSql(sql, catalog, options).ValueOrDie();
  std::vector<Tensor> inputs = query.CollectInputs(catalog).ValueOrDie();
  Device* dev = GetDevice(DeviceKind::kCudaSim);
  dev->ResetClock();
  TQP_CHECK_OK(query.RunWithInputs(inputs).status());
  return dev->simulated_seconds();
}

double ColumnarGpuSeconds(const std::string& sql, const Catalog& catalog,
                          int64_t* kernels) {
  ColumnarEngine engine(&catalog, nullptr, DeviceKind::kCudaSim,
                        /*charge_transfers=*/false);
  Device* dev = GetDevice(DeviceKind::kCudaSim);
  dev->ResetClock();
  TQP_CHECK_OK(engine.ExecuteSql(sql).status());
  *kernels = engine.last_kernels();
  return dev->simulated_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const double sf = bench::ScaleFactorArg(argc, argv, 0.05);
  bench::PrintHeader("TXT2: TQP vs BlazingSQL stand-in on the simulated GPU");
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = sf;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));

  std::printf("scale factor %.3f; timings are the simulated P100 clock\n\n", sf);
  std::printf("%-6s %18s %24s %10s\n", "query", "TQP gpu (ms)",
              "columnar gpu (ms)", "speedup");
  for (int q : {6, 14}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    const double tqp = TqpGpuSeconds(sql, catalog);
    int64_t kernels = 0;
    const double columnar = ColumnarGpuSeconds(sql, catalog, &kernels);
    std::printf("Q%-5d %18.3f %17.3f (%3lld) %9.2fx\n", q, tqp * 1e3,
                columnar * 1e3, static_cast<long long>(kernels), columnar / tqp);
  }
  std::printf("\n(paper claims > 4x on Q6/Q14 vs BlazingSQL; the parenthesized"
              " count is the baseline's kernel launches)\n");
  return 0;
}
