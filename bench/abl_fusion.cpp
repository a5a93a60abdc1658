// ABL1 — fusion ablation, the mechanism behind the paper's claim that
// compiled operator chains win by making fewer passes over memory:
//  (a) elementwise-chain fusion in the TorchScript-analog StaticExecutor
//      (now backed by the ExprProgram expression-fusion layer) vs the eager
//      executor, on a synthetic pointwise chain and TPC-H Q1/Q6;
//  (b) single-pass fused expression execution inside the kPipelined
//      backend's morsel streams (CompileOptions::expr_fusion on/off),
//      reporting wall time, BufferPool peak live bytes and the number of
//      pool allocations per run — fusion's effect is measurable in
//      allocation counts and passes over memory even on one core.
//
// Emits JSON (one object) on stdout so CI can track the trajectory per
// commit; the human-readable summary goes to stderr.
//
// Usage: abl_fusion [scale_factor]   (default 0.1)

#include <cstdio>

#include "bench_util.h"
#include "compile/compiler.h"
#include "graph/static_executor.h"
#include "tensor/buffer_pool.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace tqp;  // NOLINT: bench binary

namespace {

// A Q6-like pointwise chain over one big column: ((x*a+b)*x - c) clamped,
// compared, combined — 12 fusible nodes.
std::shared_ptr<TensorProgram> MakeChainProgram() {
  auto program = std::make_shared<TensorProgram>();
  const int x = program->AddInput("x");
  auto constant = [&](double v) {
    return program->AddConstant(
        Tensor::Full(DType::kFloat64, 1, 1, v).ValueOrDie(), "c");
  };
  auto binary = [&](BinaryOpKind op, int a, int b) {
    AttrMap attrs;
    attrs.Set("op", static_cast<int64_t>(op));
    return program->AddNode(OpType::kBinary, {a, b}, attrs);
  };
  auto compare = [&](CompareOpKind op, int a, int b) {
    AttrMap attrs;
    attrs.Set("op", static_cast<int64_t>(op));
    return program->AddNode(OpType::kCompare, {a, b}, attrs);
  };
  int t = binary(BinaryOpKind::kMul, x, constant(1.0001));
  t = binary(BinaryOpKind::kAdd, t, constant(3.5));
  t = binary(BinaryOpKind::kMul, t, x);
  t = binary(BinaryOpKind::kSub, t, constant(0.25));
  t = binary(BinaryOpKind::kMin, t, constant(1e9));
  t = binary(BinaryOpKind::kMax, t, constant(-1e9));
  const int gt = compare(CompareOpKind::kGt, t, constant(0.0));
  const int lt = compare(CompareOpKind::kLt, t, constant(100.0));
  AttrMap and_attr;
  and_attr.Set("op", static_cast<int64_t>(LogicalOpKind::kAnd));
  const int mask = program->AddNode(OpType::kLogical, {gt, lt}, and_attr);
  const int where = program->AddNode(OpType::kWhere, {mask, t, constant(0.0)});
  AttrMap sum_attr;
  sum_attr.Set("op", static_cast<int64_t>(ReduceOpKind::kSum));
  const int sum = program->AddNode(OpType::kReduceAll, {where}, sum_attr);
  program->MarkOutput(sum);
  return program;
}

}  // namespace

int main(int argc, char** argv) {
  const double sf = bench::ScaleFactorArg(argc, argv, 0.1);
  const bench::TimingProtocol protocol{5, 5};
  std::fprintf(stderr, "=== ABL1: expression fusion (static + pipelined) ===\n");

  std::printf("{\n  \"bench\": \"abl_fusion\",\n  \"scale_factor\": %.4f,\n", sf);

  // (a) Synthetic pointwise chain at several sizes: static (fused) vs eager.
  std::fprintf(stderr, "\nsynthetic 10-op pointwise chain:\n");
  std::fprintf(stderr, "%10s %12s %12s %9s %7s\n", "rows", "eager (ms)",
               "static (ms)", "speedup", "groups");
  auto program = MakeChainProgram();
  std::printf("  \"chain\": [");
  bool first = true;
  for (int64_t n : {100000L, 1000000L, 4000000L}) {
    Tensor x = Tensor::Full(DType::kFloat64, n, 1, 1.5).ValueOrDie();
    auto eager = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();
    auto fused = MakeExecutor(ExecutorTarget::kStatic, program).ValueOrDie();
    const double eager_sec = bench::MedianTime(
        [&] { TQP_CHECK_OK(eager->Run({x}).status()); }, protocol);
    const double static_sec = bench::MedianTime(
        [&] { TQP_CHECK_OK(fused->Run({x}).status()); }, protocol);
    const auto* st = static_cast<const StaticExecutor*>(fused.get());
    std::printf("%s\n    {\"rows\": %lld, \"eager_ms\": %.4f, "
                "\"static_ms\": %.4f, \"fusion_groups\": %d, "
                "\"expr_groups\": %d}",
                first ? "" : ",", static_cast<long long>(n), eager_sec * 1e3,
                static_sec * 1e3, st->num_fusion_groups(),
                st->num_expr_fused_groups());
    first = false;
    std::fprintf(stderr, "%10lld %12.3f %12.3f %8.2fx %7d\n",
                 static_cast<long long>(n), eager_sec * 1e3, static_sec * 1e3,
                 eager_sec / static_sec, st->num_fusion_groups());
  }
  std::printf("],\n");

  // (b) TPC-H Q1 and Q6 (expression heavy): static vs eager, and the
  // pipelined backend with expression fusion on vs off.
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = sf;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));
  QueryCompiler compiler;
  std::fprintf(stderr, "\nTPC-H at SF %.3f:\n", sf);
  std::fprintf(stderr, "%6s %12s %12s %9s | pipelined: %11s %12s %10s\n",
               "query", "eager (ms)", "static (ms)", "speedup", "fused (ms)",
               "unfused (ms)", "alloc f/u");
  std::printf("  \"tpch\": [");
  first = true;
  for (int q : {1, 6}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    CompileOptions eager_options;
    eager_options.target = ExecutorTarget::kEager;
    CompiledQuery eager =
        compiler.CompileSql(sql, catalog, eager_options).ValueOrDie();
    CompileOptions static_options;
    static_options.target = ExecutorTarget::kStatic;
    CompiledQuery fused =
        compiler.CompileSql(sql, catalog, static_options).ValueOrDie();
    std::vector<Tensor> inputs = eager.CollectInputs(catalog).ValueOrDie();
    const double eager_sec = bench::MedianTime(
        [&] { TQP_CHECK_OK(eager.RunWithInputs(inputs).status()); }, protocol);
    const double static_sec = bench::MedianTime(
        [&] { TQP_CHECK_OK(fused.RunWithInputs(inputs).status()); }, protocol);

    // The pipelined backend with expression fusion on, then off.
    const bool fusion_configs[] = {true, false};
    bench::PoolTimedRun pipe[2];
    for (int fi = 0; fi < 2; ++fi) {
      CompileOptions options;
      options.target = ExecutorTarget::kPipelined;
      options.num_threads = 1;  // serial: allocation counts are exact
      options.expr_fusion = fusion_configs[fi];
      CompiledQuery query =
          compiler.CompileSql(sql, catalog, options).ValueOrDie();
      pipe[fi] = bench::MeasureWithPool(
          [&] { TQP_CHECK_OK(query.RunWithInputs(inputs).status()); },
          protocol);
    }
    std::printf(
        "%s\n    {\"query\": \"Q%d\", \"eager_ms\": %.4f, \"static_ms\": %.4f,"
        "\n     \"pipelined\": [",
        first ? "" : ",", q, eager_sec * 1e3, static_sec * 1e3);
    for (int fi = 0; fi < 2; ++fi) {
      std::printf(
          "%s\n      {\"expr_fusion\": %s, \"ms\": %.4f, "
          "\"peak_alloc_mb\": %.3f, \"allocs\": %lld}",
          fi == 0 ? "" : ",", fusion_configs[fi] ? "true" : "false",
          pipe[fi].seconds * 1e3, pipe[fi].peak_alloc_mb,
          static_cast<long long>(pipe[fi].allocs));
    }
    std::printf("]}");
    first = false;
    std::fprintf(stderr,
                 "Q%-5d %12.3f %12.3f %8.2fx | %11.3f %12.3f %4lld/%-5lld\n",
                 q, eager_sec * 1e3, static_sec * 1e3, eager_sec / static_sec,
                 pipe[0].seconds * 1e3, pipe[1].seconds * 1e3,
                 static_cast<long long>(pipe[0].allocs),
                 static_cast<long long>(pipe[1].allocs));
  }
  std::printf("]\n}\n");
  return 0;
}
