// Demo scenario 2 (paper §3.2): multiple backend support. Compiles TPC-H Q6
// and Q14 once per backend — CPU (TorchScript-analog static executor),
// simulated GPU, and the portable-bytecode web analog — switching backends
// with a one-line option change (Figure 3), and verifies every backend
// returns the same answer.

#include <cstdio>

#include "compile/compiler.h"
#include "graph/serialize.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace tqp;  // NOLINT: example code

int main() {
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = 0.01;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));
  QueryCompiler compiler;

  bool all_identical = true;
  for (int q : {6, 14}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    std::printf("==== TPC-H Q%d ====\n", q);

    // Backend 1: CPU, ahead-of-time planned (the default).
    CompileOptions options;
    options.target = ExecutorTarget::kStatic;
    options.device = DeviceKind::kCpu;
    CompiledQuery cpu_query = compiler.CompileSql(sql, catalog, options).ValueOrDie();
    Table cpu_result = cpu_query.Run(catalog).ValueOrDie();

    // Backend 2: the simulated GPU — one line changed.
    options.device = DeviceKind::kCudaSim;
    CompiledQuery gpu_query = compiler.CompileSql(sql, catalog, options).ValueOrDie();
    GetDevice(DeviceKind::kCudaSim)->ResetClock();
    Table gpu_result = gpu_query.Run(catalog).ValueOrDie();
    const double gpu_ms = GetDevice(DeviceKind::kCudaSim)->simulated_seconds() * 1e3;

    // Backend 3: export to portable bytecode and run the interpreter — the
    // browser path (the bytecode string is what would ship to the client).
    options.target = ExecutorTarget::kInterp;
    options.device = DeviceKind::kCpu;
    CompiledQuery web_query = compiler.CompileSql(sql, catalog, options).ValueOrDie();
    const std::string bytecode = SerializeProgram(web_query.program());
    Table web_result = web_query.Run(catalog).ValueOrDie();

    const bool gpu_same = TablesEqualUnordered(gpu_result, cpu_result).ok();
    const bool web_same = TablesEqualUnordered(web_result, cpu_result).ok();
    all_identical = all_identical && gpu_same && web_same;
    std::printf("cpu result rows: %lld; gpu identical: %s (sim %.3f ms); "
                "web identical: %s (bytecode %zu bytes)\n",
                static_cast<long long>(cpu_result.num_rows()),
                gpu_same ? "yes" : "NO", gpu_ms, web_same ? "yes" : "NO",
                bytecode.size());
    std::printf("%s\n", cpu_result.ToString(5).c_str());
  }
  return all_identical ? 0 : 1;
}
