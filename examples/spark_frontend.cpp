// Frontend decoupling (paper §2.2): TQP's parsing layer accepts a physical
// plan produced by an *external* system — the paper uses Spark SQL physical
// plans. This example hands TQP a Spark-shaped JSON plan (as a Spark driver
// would over the wire), compiles it into a tensor program, and shows that it
// matches the result of the equivalent SQL text compiled by TQP's own
// parser, on both CPU and the simulated GPU.

#include <cstdio>

#include "compile/compiler.h"
#include "frontend/spark_plan.h"
#include "tpch/dbgen.h"

using namespace tqp;  // NOLINT: example code

int main() {
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = 0.01;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));

  // A Q6-shaped physical plan as an external frontend would emit it:
  // aggregate over a filtered scan, operators and expressions pre-chosen.
  const char* kSparkPlan = R"({
    "node": "HashAggregate",
    "aggregateExpressions": ["SUM(l_extendedprice * l_discount) AS revenue"],
    "children": [{
      "node": "Filter",
      "condition": "l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
      "children": [{"node": "FileSourceScan", "table": "lineitem"}]
    }]
  })";

  PlanPtr plan = frontend::FromSparkPlanJson(kSparkPlan, catalog).ValueOrDie();
  std::printf("ingested physical plan:\n%s\n", plan->ToString().c_str());

  QueryCompiler compiler;
  CompileOptions options;
  CompiledQuery cpu = compiler.Compile(plan, options).ValueOrDie();
  Table cpu_result = cpu.Run(catalog).ValueOrDie();
  std::printf("CPU result:\n%s\n", cpu_result.ToString().c_str());

  options.device = DeviceKind::kCudaSim;
  CompiledQuery gpu = compiler.Compile(plan, options).ValueOrDie();
  GetDevice(DeviceKind::kCudaSim)->ResetClock();
  Table gpu_result = gpu.Run(catalog).ValueOrDie();
  const bool gpu_same = TablesEqualUnordered(gpu_result, cpu_result).ok();
  std::printf("simulated GPU result matches: %s (clock %.1f us)\n",
              gpu_same ? "yes" : "NO",
              GetDevice(DeviceKind::kCudaSim)->simulated_seconds() * 1e6);

  // Same query through TQP's own SQL frontend — identical answer.
  Table sql_result =
      compiler
          .CompileSql(
              "SELECT SUM(l_extendedprice * l_discount) AS revenue "
              "FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' "
              "AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR "
              "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
              catalog, CompileOptions{})
          .ValueOrDie()
          .Run(catalog)
          .ValueOrDie();
  const bool same = TablesEqualUnordered(sql_result, cpu_result).ok();
  std::printf("SQL frontend agrees with plan frontend: %s\n",
              same ? "yes" : "NO");
  return same && gpu_same ? 0 : 1;
}
