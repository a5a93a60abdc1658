// Tests for the pipelined morsel-streaming execution stack: the compiler's
// pipeline splitter (streamable-op classification, breaker placement,
// cardinality tracking through filters and join expansions), the step DAG it
// derives (dependency edges, last-consumer release sets), bit-identical
// PipelinedExecutor results against the serial executors on TPC-H and ML
// prediction pipelines at several thread counts and morsel sizes — with and
// without a memory budget, which decides whether steps overlap — the driving
// source chosen under runtime broadcasts, the guard
// that streamable ops run whole only as 1-row scalars, real concurrency of
// independent steps, eager value release on both runtime backends, and the
// size-classed BufferPool underneath it all.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "compile/compiler.h"
#include "compile/pipeline.h"
#include "datasets/iris.h"
#include "ml/linear.h"
#include "ml/tree.h"
#include "obs/trace.h"
#include "runtime/runtime.h"
#include "tensor/buffer_pool.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace tqp {
namespace {

void ExpectTensorsIdentical(const Tensor& got, const Tensor& want,
                            const std::string& what) {
  ASSERT_EQ(got.dtype(), want.dtype()) << what;
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  if (want.numel() > 0) {
    ASSERT_EQ(std::memcmp(got.raw_data(), want.raw_data(),
                          static_cast<size_t>(want.nbytes())),
              0)
        << what << ": payload differs";
  }
}

void ExpectTablesIdentical(const Table& got, const Table& want,
                           const std::string& what) {
  ASSERT_EQ(got.num_columns(), want.num_columns()) << what;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  for (int c = 0; c < want.num_columns(); ++c) {
    ASSERT_EQ(got.schema().field(c).name, want.schema().field(c).name) << what;
    ExpectTensorsIdentical(got.column(c).tensor(), want.column(c).tensor(),
                           what + " column " + want.schema().field(c).name);
  }
}

bool IsOpSpan(const obs::TraceEvent& e) {
  return e.phase == obs::TraceEvent::Phase::kSpan && std::strcmp(e.category, "op") == 0;
}

/// Op spans recorded inside a pipeline span: nodes a pipeline evaluated whole
/// (the RunPipelineSerial fallback) instead of streaming them.
std::vector<const obs::TraceEvent*> OpSpansUnderPipelines(
    const std::vector<obs::TraceEvent>& events) {
  std::unordered_map<uint64_t, const obs::TraceEvent*> by_span;
  for (const obs::TraceEvent& e : events) {
    if (e.span_id != 0) by_span.emplace(e.span_id, &e);
  }
  std::vector<const obs::TraceEvent*> out;
  for (const obs::TraceEvent& e : events) {
    if (!IsOpSpan(e)) continue;
    for (auto it = by_span.find(e.parent_id); it != by_span.end();
         it = by_span.find(it->second->parent_id)) {
      if (std::strcmp(it->second->category, "pipeline") == 0) {
        out.push_back(&e);
        break;
      }
    }
  }
  return out;
}

// ---- Pipeline splitter ------------------------------------------------------

TEST(PipelineSplitTest, StreamableOpClassification) {
  // Per-row work streams; order-, prefix- and whole-input-dependent ops break.
  for (OpType streamable :
       {OpType::kBinary, OpType::kCompare, OpType::kCast, OpType::kWhere,
        OpType::kCompress, OpType::kNonzero, OpType::kGather,
        OpType::kRepeatInterleave, OpType::kSearchSorted, OpType::kHashRows,
        OpType::kMatMul, OpType::kStringLike, OpType::kSubstring}) {
    EXPECT_TRUE(IsStreamableOp(streamable)) << OpTypeName(streamable);
  }
  for (OpType breaker :
       {OpType::kReduceAll, OpType::kCumSum, OpType::kSegmentedReduce,
        OpType::kArgsortRows, OpType::kGroupIds, OpType::kGroupCount,
        OpType::kScatter, OpType::kConcatRows}) {
    EXPECT_FALSE(IsStreamableOp(breaker)) << OpTypeName(breaker);
  }
}

TEST(PipelineSplitTest, FilterProjectChainFusesIntoOnePipeline) {
  // scan -> filter -> arithmetic projection: one pipeline, no breakers.
  auto program = std::make_shared<TensorProgram>();
  const int a = program->AddInput("t.a");
  const int b = program->AddInput("t.b");
  AttrMap gt;
  gt.Set("op", int64_t{2});  // some CompareOpKind
  const int mask = program->AddNode(OpType::kCompare, {a, b}, gt, "filter");
  const int ca = program->AddNode(OpType::kCompress, {a, mask}, {}, "filter a");
  const int cb = program->AddNode(OpType::kCompress, {b, mask}, {}, "filter b");
  AttrMap mul;
  mul.Set("op", int64_t{2});  // BinaryOpKind::kMul
  const int prod = program->AddNode(OpType::kBinary, {ca, cb}, mul, "project");
  program->MarkOutput(prod);

  const PipelinePlan plan = BuildPipelinePlan(*program);
  ASSERT_EQ(plan.pipelines.size(), 1u) << plan.ToString(*program);
  // The whole chain streams: mask, both compresses (a cardinality change!)
  // and the projection over the survivors.
  EXPECT_EQ(plan.pipelines[0].nodes.size(), 4u) << plan.ToString(*program);
  // Only the projection materializes.
  ASSERT_EQ(plan.pipelines[0].outputs.size(), 1u);
  EXPECT_EQ(plan.pipelines[0].outputs[0], prod);
}

TEST(PipelineSplitTest, BreakerSplitsPipelines) {
  // filter -> sort: the argsort is a breaker; the gather after it streams
  // over a new driver domain.
  auto program = std::make_shared<TensorProgram>();
  const int a = program->AddInput("t.a");
  AttrMap gt;
  gt.Set("op", int64_t{2});
  const int self_mask = program->AddNode(OpType::kCompare, {a, a}, gt);
  const int ca = program->AddNode(OpType::kCompress, {a, self_mask}, {});
  AttrMap asc;
  asc.Set("ascending", true);
  const int perm = program->AddNode(OpType::kArgsortRows, {ca}, asc);
  const int sorted = program->AddNode(OpType::kGather, {ca, perm}, {});
  program->MarkOutput(sorted);

  const PipelinePlan plan = BuildPipelinePlan(*program);
  // Two pipelines (filter chain; gather over the permutation) around one
  // serial breaker step.
  ASSERT_EQ(plan.pipelines.size(), 2u) << plan.ToString(*program);
  int serial_ops = 0;
  for (const PipelineStep& step : plan.schedule) {
    if (step.serial_node == perm) ++serial_ops;
  }
  EXPECT_EQ(serial_ops, 1);
  // The compressed column materializes (the sort and the gather consume it).
  const auto& outs = plan.pipelines[0].outputs;
  EXPECT_TRUE(std::find(outs.begin(), outs.end(), ca) != outs.end());
}

TEST(PipelineSplitTest, TpchPlansContainRealPipelines) {
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = 0.001;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));
  QueryCompiler compiler;
  for (int q : {1, 3, 6}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    CompileOptions options;
    options.target = ExecutorTarget::kPipelined;
    auto compiled = compiler.CompileSql(sql, catalog, options).ValueOrDie();
    const PipelinePlan plan = BuildPipelinePlan(compiled.program());
    EXPECT_GE(plan.pipelines.size(), 1u) << "Q" << q;
    // The scan->filter->project front of every TPC-H plan must actually
    // fuse: at least one pipeline with a multi-op chain.
    size_t longest = 0;
    for (const Pipeline& p : plan.pipelines) {
      longest = std::max(longest, p.nodes.size());
    }
    EXPECT_GE(longest, 3u) << "Q" << q << "\n" << plan.ToString(compiled.program());
    // Fusing must skip materialization: fewer pipeline outputs than
    // streamed nodes, else streaming won by nothing.
    size_t streamed = 0;
    size_t materialized = 0;
    for (const Pipeline& p : plan.pipelines) {
      streamed += p.nodes.size();
      materialized += p.outputs.size();
    }
    EXPECT_LT(materialized, streamed) << "Q" << q;
  }
}

// ---- Step DAG: dependency edges -------------------------------------------

TEST(PipelineDagTest, IndependentChainsFormIndependentSteps) {
  // Two disjoint filter chains feeding one ConcatRows breaker: the two
  // pipeline steps must not depend on each other (they can overlap), and the
  // concat must depend on both.
  auto program = std::make_shared<TensorProgram>();
  const int a = program->AddInput("t.a");
  const int b = program->AddInput("t.b");
  AttrMap gt;
  gt.Set("op", int64_t{2});
  const int mask_a = program->AddNode(OpType::kCompare, {a, a}, gt);
  const int ca = program->AddNode(OpType::kCompress, {a, mask_a}, {});
  const int mask_b = program->AddNode(OpType::kCompare, {b, b}, gt);
  const int cb = program->AddNode(OpType::kCompress, {b, mask_b}, {});
  const int cat = program->AddNode(OpType::kConcatRows, {ca, cb}, {});
  program->MarkOutput(cat);

  const PipelinePlan plan = BuildPipelinePlan(*program);
  ASSERT_EQ(plan.pipelines.size(), 2u) << plan.ToString(*program);
  ASSERT_EQ(plan.schedule.size(), 3u) << plan.ToString(*program);
  EXPECT_TRUE(plan.schedule[0].deps.empty());
  EXPECT_TRUE(plan.schedule[1].deps.empty());
  EXPECT_EQ(plan.num_root_steps(), 2);
  EXPECT_EQ(plan.schedule[2].deps, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.producer_step[static_cast<size_t>(ca)], 0);
  EXPECT_EQ(plan.producer_step[static_cast<size_t>(cb)], 1);
  EXPECT_EQ(plan.producer_step[static_cast<size_t>(cat)], 2);
  // Streamed-only nodes (the masks) never materialize.
  EXPECT_EQ(plan.producer_step[static_cast<size_t>(mask_a)], -1);
  EXPECT_EQ(plan.producer_step[static_cast<size_t>(mask_b)], -1);
}

TEST(PipelineSplitTest, TpchStepDagIsConsistent) {
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = 0.001;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));
  QueryCompiler compiler;
  for (int q : {1, 3, 6, 10}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    CompileOptions options;
    options.target = ExecutorTarget::kPipelined;
    auto compiled = compiler.CompileSql(sql, catalog, options).ValueOrDie();
    const TensorProgram& program = compiled.program();
    const PipelinePlan plan = BuildPipelinePlan(program);
    ASSERT_EQ(plan.producer_step.size(),
              static_cast<size_t>(program.num_nodes()));

    // Deps reference strictly earlier steps and cover every read's producer.
    for (size_t si = 0; si < plan.schedule.size(); ++si) {
      const PipelineStep& step = plan.schedule[si];
      for (int d : step.deps) {
        EXPECT_GE(d, 0) << "Q" << q;
        EXPECT_LT(d, static_cast<int>(si)) << "Q" << q;
      }
      for (int r : step.reads) {
        const int producer = plan.producer_step[static_cast<size_t>(r)];
        if (producer < 0) continue;  // program input
        EXPECT_TRUE(std::find(step.deps.begin(), step.deps.end(), producer) !=
                    step.deps.end())
            << "Q" << q << " step " << si << " reads n" << r
            << " without depending on its producer";
      }
    }

    EXPECT_GE(plan.num_root_steps(), 1) << "Q" << q;
    // A multi-join query must expose real inter-pipeline parallelism: more
    // than one step can start immediately.
    if (q == 3 || q == 10) {
      EXPECT_GE(plan.num_root_steps(), 2)
          << "Q" << q << "\n" << plan.ToString(program);
    }
  }
}

// ---- DAG execution: overlap + eager release --------------------------------

TEST(PipelineDagTest, IndependentSerialStepsRunConcurrently) {
  // Two independent argsort breakers. Their steps have no dependencies, so
  // an unbudgeted run hands every step to the StepScheduler as a task that
  // can be in flight next to the other (StepSchedulerTest.
  // IndependentGraphTasksOverlap proves dependency-free tasks on a
  // StepScheduler run together). A budgeted run chains the steps one at a
  // time but still submits every one through the StepScheduler, so its
  // steps keep interleaving with other queries' by priority. Inputs are tiny
  // so the kernels stay serial inside (no intra-op fan-out to entangle the
  // pool).
  auto program = std::make_shared<TensorProgram>();
  const int a = program->AddInput("a");
  const int b = program->AddInput("b");
  AttrMap asc;
  asc.Set("ascending", true);
  const int sa = program->AddNode(OpType::kArgsortRows, {a}, asc);
  const int sb = program->AddNode(OpType::kArgsortRows, {b}, asc);
  program->MarkOutput(sa);
  program->MarkOutput(sb);

  const PipelinePlan plan = BuildPipelinePlan(*program);
  int argsort_steps = 0;
  for (const PipelineStep& step : plan.schedule) {
    if (step.serial_node != sa && step.serial_node != sb) continue;
    ++argsort_steps;
    EXPECT_TRUE(step.deps.empty()) << plan.ToString(*program);
  }
  EXPECT_EQ(argsort_steps, 2) << plan.ToString(*program);

  const int64_t n = 64;
  Tensor at = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  Tensor bt = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    at.mutable_data<double>()[i] = static_cast<double>((i * 37) % 101);
    bt.mutable_data<double>()[i] = static_cast<double>((i * 53) % 97);
  }

  auto eager = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();
  auto expected = eager->Run({at, bt}).ValueOrDie();

  runtime::ThreadPool pool(2);
  // 0 = unbudgeted (an ambient scope overrides TQP_MEMORY_BUDGET_MB); 1 GiB
  // is far above this program's peak, so it gates the schedule but never
  // spills.
  for (const int64_t budget : {int64_t{0}, int64_t{1} << 30}) {
    runtime::StepScheduler steps(&pool);
    ExecOptions options;
    options.pool = &pool;
    options.step_scheduler = &steps;
    auto pipelined =
        MakeExecutor(ExecutorTarget::kPipelined, program, options).ValueOrDie();
    BufferPool::QueryScope scope(budget);
    BufferPool::QueryScope::Attach attach(&scope);
    auto got = pipelined->Run({at, bt}).ValueOrDie();
    // Every step goes through the scheduler at the default (normal)
    // priority, with or without a budget.
    EXPECT_EQ(steps.submitted()[1], static_cast<int64_t>(plan.schedule.size()))
        << "budget=" << budget;
    EXPECT_EQ(scope.stats().spill_events, 0) << "budget=" << budget;
    ASSERT_EQ(got.size(), expected.size());
    ExpectTensorsIdentical(got[0], expected[0], "argsort a");
    ExpectTensorsIdentical(got[1], expected[1], "argsort b");
  }
}

TEST(EagerReleaseTest, ChainIntermediatesReleaseBeforeRunEnds) {
  // A long elementwise chain: node-at-a-time eager execution keeps every
  // intermediate alive until the run ends, while the pipelined backend must
  // release each value right after its last consumer — its peak-allocation
  // proxy has to come in well under eager's.
  auto program = std::make_shared<TensorProgram>();
  const int x = program->AddInput("x");
  AttrMap add;
  add.Set("op", static_cast<int64_t>(BinaryOpKind::kAdd));
  int cur = x;
  for (int i = 0; i < 8; ++i) {
    cur = program->AddNode(OpType::kBinary, {cur, cur}, add);
  }
  program->MarkOutput(cur);

  const int64_t n = 1 << 20;  // 8 MiB per f64 column
  Tensor xt = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    xt.mutable_data<double>()[i] = static_cast<double>(i % 613);
  }

  BufferPool* pool = BufferPool::Global();
  const auto peak_during_run = [&](ExecutorTarget target, int threads) {
    ExecOptions options;
    options.num_threads = threads;
    auto exec = MakeExecutor(target, program, options).ValueOrDie();
    pool->ResetPeak();
    const int64_t base = pool->stats().live_bytes;
    TQP_CHECK_OK(exec->Run({xt}).status());
    return pool->stats().peak_live_bytes - base;
  };

  const int64_t eager = peak_during_run(ExecutorTarget::kEager, 1);
  const int64_t pipelined = peak_during_run(ExecutorTarget::kPipelined, 2);
  // Eight 8-MiB intermediates stay live under eager; the release path holds
  // a small constant number of values at a time.
  EXPECT_GT(eager, 7 * (n * 8));
  EXPECT_LT(pipelined, eager / 2);
}

TEST(EagerReleaseTest, ColdFusionProbeHoldsLessThanUnfusedRun) {
  // A cold pipelined run evaluates each pipeline's first morsel node by node
  // to compile its fused runs. At SF 0.001 that morsel is the whole table.
  // The probe must release each chain value after its last reader, so a
  // cold fused run holds strictly less than a cold run with fusion off,
  // whose morsel scratch keeps every chain value it evaluated. A probe that
  // kept every chain value until lowering finished peaked exactly at the
  // unfused run's level on Q4 and Q14. Q4's peak no longer sits in a probe
  // once its dead join columns are pruned (both runs hold 99,840 B), so Q19,
  // whose probe still holds the peak, stands in for it. One thread makes
  // both peaks deterministic.
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = 0.001;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));
  const auto cold_peak = [&](bool expr_fusion, int q) {
    QueryCompiler compiler;  // fresh executor: every pipeline probes
    CompileOptions options;
    options.target = ExecutorTarget::kPipelined;
    options.expr_fusion = expr_fusion;
    options.num_threads = 1;
    auto compiled =
        compiler.CompileSql(tpch::QueryText(q).ValueOrDie(), catalog, options)
            .ValueOrDie();
    BufferPool::QueryScope scope;
    BufferPool::QueryScope::Attach attach(&scope);
    TQP_CHECK_OK(compiled.Run(catalog).status());
    return scope.stats().peak_live_bytes;
  };
  for (int q : {14, 19}) {
    EXPECT_LT(cold_peak(true, q), cold_peak(false, q)) << "Q" << q;
  }
}

// ---- PipelinedExecutor: differential --------------------------------------

class PipelineTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::DbgenOptions options;
    options.scale_factor = 0.01;
    TQP_CHECK_OK(tpch::GenerateAll(options, catalog_));
  }
  static Catalog* catalog_;
};

Catalog* PipelineTpchTest::catalog_ = nullptr;

TEST_F(PipelineTpchTest, PipelinedBitIdenticalToEagerOnTpch) {
  QueryCompiler compiler;
  for (int q : {1, 3, 4, 6, 10, 12, 14}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    CompileOptions eager_options;
    eager_options.target = ExecutorTarget::kEager;
    Table reference = compiler.CompileSql(sql, *catalog_, eager_options)
                          .ValueOrDie()
                          .Run(*catalog_)
                          .ValueOrDie();
    for (int threads : {1, 2, 8}) {
      CompileOptions pipe_options;
      pipe_options.target = ExecutorTarget::kPipelined;
      pipe_options.num_threads = threads;
      pipe_options.morsel_rows = 1000;  // many morsels even at SF 0.01
      Table result = compiler.CompileSql(sql, *catalog_, pipe_options)
                         .ValueOrDie()
                         .Run(*catalog_)
                         .ValueOrDie();
      std::string what = "Q";
      what += std::to_string(q);
      what += " at ";
      what += std::to_string(threads);
      what += " threads";
      ExpectTablesIdentical(result, reference, what);
    }
  }
}

TEST_F(PipelineTpchTest, PipelinedExactAcrossMorselSizes) {
  // Morsel-size sweep including pathological sizes (1 row per morsel).
  QueryCompiler compiler;
  const std::string sql = tpch::QueryText(6).ValueOrDie();
  CompileOptions eager_options;
  eager_options.target = ExecutorTarget::kEager;
  Table reference = compiler.CompileSql(sql, *catalog_, eager_options)
                        .ValueOrDie()
                        .Run(*catalog_)
                        .ValueOrDie();
  for (int64_t morsel : {1, 7, 977, 1 << 20}) {
    CompileOptions options;
    options.target = ExecutorTarget::kPipelined;
    options.num_threads = 4;
    options.morsel_rows = morsel;
    Table result = compiler.CompileSql(sql, *catalog_, options)
                       .ValueOrDie()
                       .Run(*catalog_)
                       .ValueOrDie();
    ExpectTablesIdentical(result, reference,
                          "morsel " + std::to_string(morsel));
  }
}

TEST_F(PipelineTpchTest, UnbudgetedAndBudgetedSchedulesBitIdentical) {
  // The schedule must be a pure reordering: an unbudgeted run, whose
  // independent steps overlap, and a budgeted one, which runs one step at a
  // time, are both bit-identical to eager on multi-join queries.
  QueryCompiler compiler;
  for (int q : {3, 10}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    CompileOptions eager_options;
    eager_options.target = ExecutorTarget::kEager;
    Table reference = compiler.CompileSql(sql, *catalog_, eager_options)
                          .ValueOrDie()
                          .Run(*catalog_)
                          .ValueOrDie();
    // 0 = unbudgeted; 1 GiB is far above either query's peak, so it
    // changes the schedule and nothing else.
    for (const int64_t budget : {int64_t{0}, int64_t{1} << 30}) {
      CompileOptions options;
      options.target = ExecutorTarget::kPipelined;
      options.num_threads = 4;
      options.morsel_rows = 1500;
      CompiledQuery compiled =
          compiler.CompileSql(sql, *catalog_, options).ValueOrDie();
      BufferPool::QueryScope scope(budget);
      BufferPool::QueryScope::Attach attach(&scope);
      Table result = compiled.Run(*catalog_).ValueOrDie();
      const std::string what =
          "Q" + std::to_string(q) + " budget=" + std::to_string(budget);
      ExpectTablesIdentical(result, reference, what);
      EXPECT_EQ(scope.stats().spill_events, 0) << what;
    }
  }
}

TEST(PipelineMlTest, PipelinedBitIdenticalToInterpOnPredictionPipeline) {
  Catalog catalog;
  ml::ModelRegistry registry;
  Table iris = datasets::IrisTable().ValueOrDie();
  catalog.RegisterTable("iris", iris);
  Tensor features = Tensor::Empty(DType::kFloat64, iris.num_rows(), 3).ValueOrDie();
  Tensor target = Tensor::Empty(DType::kFloat64, iris.num_rows(), 1).ValueOrDie();
  for (int64_t i = 0; i < iris.num_rows(); ++i) {
    for (int f = 0; f < 3; ++f) {
      features.mutable_data<double>()[i * 3 + f] =
          iris.column(f).tensor().at<double>(i);
    }
    target.mutable_data<double>()[i] = iris.column(3).tensor().at<double>(i);
  }
  registry.Register(
      ml::LinearRegressionModel::Fit("petal_lr", features, target).ValueOrDie());
  ml::RandomForestModel::FitOptions forest_options;
  forest_options.num_trees = 5;
  registry.Register(
      ml::RandomForestModel::Fit("petal_rf", features, target, forest_options)
          .ValueOrDie());
  QueryCompiler compiler(&registry);
  for (const char* model : {"petal_lr", "petal_rf"}) {
    const std::string sql =
        std::string("SELECT species, AVG(PREDICT('") + model +
        "', sepal_length, sepal_width, petal_length)) AS predicted_width "
        "FROM iris GROUP BY species ORDER BY species";
    CompileOptions interp_options;
    interp_options.target = ExecutorTarget::kInterp;
    Table reference = compiler.CompileSql(sql, catalog, interp_options)
                          .ValueOrDie()
                          .Run(catalog)
                          .ValueOrDie();
    for (int threads : {1, 2, 8}) {
      CompileOptions pipe_options;
      pipe_options.target = ExecutorTarget::kPipelined;
      pipe_options.num_threads = threads;
      pipe_options.morsel_rows = 16;  // iris is tiny; force real morsel fan-out
      Table result = compiler.CompileSql(sql, catalog, pipe_options)
                         .ValueOrDie()
                         .Run(catalog)
                         .ValueOrDie();
      ExpectTablesIdentical(result, reference,
                            std::string(model) + " at " + std::to_string(threads) +
                                " threads");
    }
  }
}

TEST(PipelineExecTest, RuntimeBroadcastSourceDisablesOffsetStreaming) {
  // Regression: the splitter proves compare(y, y)'s domain equal to the
  // driver via binary(x, y)'s union — but at runtime y is a 1-row broadcast,
  // so the nonzero downstream must NOT add morsel offsets. The executor has
  // to detect the broadcast and evaluate the pipeline whole.
  auto program = std::make_shared<TensorProgram>();
  const int x = program->AddInput("x");
  const int y = program->AddInput("y");
  AttrMap add;
  add.Set("op", static_cast<int64_t>(BinaryOpKind::kAdd));
  const int b1 = program->AddNode(OpType::kBinary, {x, y}, add);
  AttrMap eq;
  eq.Set("op", static_cast<int64_t>(CompareOpKind::kEq));
  const int m = program->AddNode(OpType::kCompare, {y, y}, eq);
  const int nz = program->AddNode(OpType::kNonzero, {m}, {});
  program->MarkOutput(b1);
  program->MarkOutput(nz);

  const int64_t n = 40000;
  Tensor xt = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) xt.mutable_data<double>()[i] = double(i % 97);
  Tensor yt = Tensor::Full(DType::kFloat64, 1, 1, 2.5).ValueOrDie();

  auto eager = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();
  auto expected = eager->Run({xt, yt}).ValueOrDie();
  ExecOptions options;
  options.num_threads = 4;
  options.morsel_rows = 1000;  // 40 morsels
  auto pipelined =
      MakeExecutor(ExecutorTarget::kPipelined, program, options).ValueOrDie();
  auto got = pipelined->Run({xt, yt}).ValueOrDie();
  ASSERT_EQ(got.size(), expected.size());
  ExpectTensorsIdentical(got[0], expected[0], "broadcast binary");
  ExpectTensorsIdentical(got[1], expected[1], "nonzero over broadcast mask");
}

TEST(PipelineExecTest, BroadcastFirstOperandStillStreams) {
  // seg's row count is the runtime value of its num_segments operand, which
  // the splitter cannot see, so binary(seg, x) slices both seg and x. At
  // runtime seg is a 1-row broadcast listed before the driver-sized x: the
  // driver must come from x, or the pipeline falls back to whole-node
  // evaluation.
  auto program = std::make_shared<TensorProgram>();
  const int x = program->AddInput("x");
  const int ids = program->AddInput("ids");
  const int count = program->AddConstant(Tensor::FromVector<int64_t>({1}));
  AttrMap sum;
  sum.Set("op", static_cast<int64_t>(ReduceOpKind::kSum));
  const int seg = program->AddNode(OpType::kSegmentedReduce, {x, ids, count}, sum);
  AttrMap add;
  add.Set("op", static_cast<int64_t>(BinaryOpKind::kAdd));
  program->MarkOutput(program->AddNode(OpType::kBinary, {seg, x}, add));

  const int64_t n = 40000;
  Tensor xt = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) xt.mutable_data<double>()[i] = double(i % 97) / 8;
  Tensor idt = Tensor::Full(DType::kInt64, n, 1, 0).ValueOrDie();

  auto eager = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();
  auto expected = eager->Run({xt, idt}).ValueOrDie();
  ExecOptions options;
  options.num_threads = 4;
  options.morsel_rows = 1000;  // 40 morsels
  auto exec = MakeExecutor(ExecutorTarget::kPipelined, program, options).ValueOrDie();
  obs::TraceSession session;
  std::vector<Tensor> got;
  {
    obs::TraceContext ctx(&session, session.NextQueryId());
    got = exec->Run({xt, idt}).ValueOrDie();
  }
  EXPECT_GT(static_cast<PipelinedExecutor*>(exec.get())->num_morsel_evals(), 1);
  EXPECT_TRUE(OpSpansUnderPipelines(session.events()).empty());
  ASSERT_EQ(got.size(), expected.size());
  ExpectTensorsIdentical(got[0], expected[0], "broadcast-first binary");
}

/// Runs `program` over one 100k-row input on kEager and on kPipelined with
/// 1024-row morsels, and requires bit-identical outputs.
void ExpectPipelinedMatchesEager(const std::shared_ptr<TensorProgram>& program,
                                 const std::string& what) {
  const int64_t n = 100000;
  Tensor xt = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) xt.mutable_data<double>()[i] = double(i % 89);
  auto eager = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();
  auto expected = eager->Run({xt}).ValueOrDie();
  ExecOptions options;
  options.num_threads = 2;
  options.morsel_rows = 1024;
  auto pipelined =
      MakeExecutor(ExecutorTarget::kPipelined, program, options).ValueOrDie();
  auto got = pipelined->Run({xt});
  ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
  ASSERT_EQ(got->size(), expected.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectTensorsIdentical((*got)[i], expected[i], what);
  }
}

TEST(PipelineExecTest, ValueSlicedByOneNodeAndWholeForTheNextSplits) {
  // arange_like(x) slices x per morsel; gather(x, ids) needs all of x. One
  // pipeline holding both would bind x's slice over its whole value.
  auto program = std::make_shared<TensorProgram>();
  const int x = program->AddInput("x");
  const int ids = program->AddNode(OpType::kArangeLike, {x}, {});
  program->MarkOutput(program->AddNode(OpType::kGather, {x, ids}, {}));
  const PipelinePlan plan = BuildPipelinePlan(*program);
  for (const Pipeline& p : plan.pipelines) {
    for (int src : p.sliced_sources) {
      EXPECT_EQ(std::count(p.whole_sources.begin(), p.whole_sources.end(), src),
                0)
          << plan.ToString(*program);
    }
  }
  ExpectPipelinedMatchesEager(program, "gather(x, arange_like(x))");
}

TEST(PipelineExecTest, NodeReadingOneValueSlicedAndWholeRunsWhole) {
  // gather(ids, ids) reads ids as data (whole) and as indices (sliced).
  auto program = std::make_shared<TensorProgram>();
  const int x = program->AddInput("x");
  const int ids = program->AddNode(OpType::kArangeLike, {x}, {});
  const int g = program->AddNode(OpType::kGather, {ids, ids}, {});
  program->MarkOutput(g);
  const PipelinePlan plan = BuildPipelinePlan(*program);
  const int step = plan.producer_step[static_cast<size_t>(g)];
  ASSERT_GE(step, 0);
  EXPECT_EQ(plan.schedule[static_cast<size_t>(step)].serial_node, g)
      << plan.ToString(*program);
  ExpectPipelinedMatchesEager(program, "gather(ids, ids)");
}

TEST_F(PipelineTpchTest, WholeNodeStreamableOpsAreScalars) {
  // ParallelEvalNode has no parallel kernel for streamable ops: they go
  // parallel only inside pipelines. That is free only while (a) no pipeline
  // falls back to whole-node evaluation and (b) a streamable op runs whole
  // only as a 1-row scalar step. Pin both on the serving configuration.
  std::map<std::string, OpType> op_by_name;
  // kHashTokenize is the last OpType.
  for (int t = 0; t <= static_cast<int>(OpType::kHashTokenize); ++t) {
    op_by_name.emplace(OpTypeName(static_cast<OpType>(t)), static_cast<OpType>(t));
  }
  QueryCompiler compiler;
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.num_threads = 4;
  int64_t streamable_whole = 0;
  for (int q = 1; q <= 22; ++q) {
    const std::string what = "Q" + std::to_string(q);
    CompiledQuery query =
        compiler.CompileSql(tpch::QueryText(q).ValueOrDie(), *catalog_, options)
            .ValueOrDie();
    obs::TraceSession session;
    {
      obs::TraceContext ctx(&session, session.NextQueryId());
      ASSERT_TRUE(query.Run(*catalog_).ok()) << what;
    }
    const std::vector<obs::TraceEvent> events = session.events();
    for (const obs::TraceEvent* e : OpSpansUnderPipelines(events)) {
      ADD_FAILURE() << what << ": " << e->name << " evaluated whole in a pipeline";
    }
    for (const obs::TraceEvent& e : events) {
      if (!IsOpSpan(e)) continue;
      const auto op = op_by_name.find(e.name);
      ASSERT_NE(op, op_by_name.end()) << what << ": " << e.name;
      if (!IsStreamableOp(op->second)) continue;
      ++streamable_whole;
      int64_t output_bytes = -1;
      for (int a = 0; a < e.num_args; ++a) {
        if (std::strcmp(e.arg_names[a], "output_bytes") == 0) {
          output_bytes = e.arg_values[a];
        }
      }
      EXPECT_GE(output_bytes, 0) << what << ": " << e.name;
      EXPECT_LE(output_bytes, 64) << what << ": whole-node " << e.name;
    }
  }
  // Some queries do have scalar streamable steps, so the checks above are
  // not vacuous.
  EXPECT_GT(streamable_whole, 0);
}

TEST_F(PipelineTpchTest, SimulatedDeviceIsRejected) {
  // The pipelined backend runs on host cores only; the simulated GPU's
  // kernel metering belongs to the eager and static targets.
  QueryCompiler compiler;
  const std::string sql = tpch::QueryText(6).ValueOrDie();
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.device = DeviceKind::kCudaSim;
  auto compiled_or = compiler.CompileSql(sql, *catalog_, options);
  ASSERT_FALSE(compiled_or.ok());
  EXPECT_EQ(compiled_or.status().code(), StatusCode::kInvalidArgument)
      << compiled_or.status().ToString();
  EXPECT_NE(compiled_or.status().ToString().find("static"), std::string::npos)
      << compiled_or.status().ToString();
}

// ---- BufferPool ------------------------------------------------------------

TEST(BufferPoolTest, RecyclesSizeClassesZeroed) {
  BufferPool pool(/*max_cached_bytes=*/1 << 20);
  int64_t alloc = 0;
  uint8_t* block = pool.Acquire(1000, &alloc);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(alloc, 1024);  // quarter-octave class above 896
  std::memset(block, 0xab, 1000);
  pool.Release(block, alloc);
  EXPECT_EQ(pool.stats().cached_bytes, 1024);

  // A request in the class below (769..896 B) takes its own block: the
  // 1024 B block would be over 1.25x the request.
  int64_t alloc_below = 0;
  uint8_t* below = pool.Acquire(800, &alloc_below);
  ASSERT_NE(below, nullptr);
  EXPECT_NE(below, block);
  EXPECT_EQ(alloc_below, 896);
  pool.Release(below, alloc_below);

  // Same class comes back recycled — and zeroed, despite the scribble.
  int64_t alloc2 = 0;
  uint8_t* again = pool.Acquire(900, &alloc2);
  ASSERT_EQ(again, block);
  EXPECT_EQ(alloc2, 1024);
  for (int i = 0; i < 900; ++i) ASSERT_EQ(again[i], 0) << "byte " << i;
  pool.Release(again, alloc2);

  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.allocations, 3);
  EXPECT_EQ(stats.pool_hits, 1);
  EXPECT_EQ(stats.pool_misses, 2);
  EXPECT_EQ(stats.recycled_bytes, 1024);
  EXPECT_EQ(stats.live_bytes, 0);
  EXPECT_EQ(stats.peak_live_bytes, 1024);
  EXPECT_EQ(stats.cached_bytes, 1024 + 896);
  pool.Trim();
  EXPECT_EQ(pool.stats().cached_bytes, 0);
}

TEST(BufferPoolTest, SizeClassesAreBoundedMonotoneAndAligned) {
  constexpr int64_t kMaxPooled = int64_t{1} << 24;
  // Every request size near each class boundary, plus a seeded sweep.
  std::vector<int64_t> sizes;
  for (int64_t base = 64; base <= kMaxPooled; base *= 2) {
    for (int64_t step : {base / 4, base / 2, 3 * base / 4, base}) {
      const int64_t edge = base + step;
      for (int64_t d = -65; d <= 65; ++d) sizes.push_back(edge + d);
    }
  }
  for (int64_t s = 1; s <= 4096; ++s) sizes.push_back(s);
  std::mt19937_64 rng(33);
  for (int i = 0; i < 20000; ++i) {
    sizes.push_back(1 + static_cast<int64_t>(rng() % (kMaxPooled + 1)));
  }
  sizes.push_back(kMaxPooled);
  sizes.push_back(kMaxPooled + 1);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());

  int64_t prev = 0;
  for (int64_t size : sizes) {
    if (size < 1) continue;
    const int64_t alloc = BufferPool::AllocSizeFor(size);
    ASSERT_GE(alloc, size) << "size " << size;
    ASSERT_GE(alloc, prev) << "classes must be monotone; size " << size;
    ASSERT_EQ(alloc % 64, 0) << "aligned_alloc needs a multiple of 64; size "
                             << size;
    if (size > 256 && size <= kMaxPooled) {
      ASSERT_LE(alloc * 4, size * 5) << "over 1.25x; size " << size;
    }
    prev = alloc;
  }
  EXPECT_EQ(BufferPool::AllocSizeFor(1), 64);
  EXPECT_EQ(BufferPool::AllocSizeFor(65), 128);
  EXPECT_EQ(BufferPool::AllocSizeFor(256), 256);
  EXPECT_EQ(BufferPool::AllocSizeFor(257), 320);
  EXPECT_EQ(BufferPool::AllocSizeFor(4795416), 5 << 20);  // 599,427 int64s
  EXPECT_EQ(BufferPool::AllocSizeFor(1200000), 1310720);   // 1.25 MiB
  EXPECT_EQ(BufferPool::AllocSizeFor(16384 * 8), 16384 * 8);
  EXPECT_EQ(BufferPool::AllocSizeFor(kMaxPooled), kMaxPooled);
  EXPECT_EQ(BufferPool::AllocSizeFor(kMaxPooled + 1), kMaxPooled + 64);

  // Blocks recycle per class: a block returns to exactly the requests of
  // its own class, zeroed over the requested bytes.
  BufferPool pool(/*max_cached_bytes=*/int64_t{64} << 20);
  for (int64_t size : {int64_t{100}, int64_t{300}, int64_t{5000},
                       int64_t{4795416}, kMaxPooled}) {
    int64_t alloc = 0;
    uint8_t* block = pool.Acquire(size, &alloc);
    ASSERT_NE(block, nullptr);
    ASSERT_EQ(alloc, BufferPool::AllocSizeFor(size));
    ASSERT_EQ(reinterpret_cast<uintptr_t>(block) % 64, 0u);
    std::memset(block, 0xcd, static_cast<size_t>(alloc));
    pool.Release(block, alloc);
    int64_t again_alloc = 0;
    uint8_t* again = pool.Acquire(size, &again_alloc);
    ASSERT_EQ(again, block) << "size " << size;
    ASSERT_EQ(again_alloc, alloc);
    ASSERT_EQ(std::count(again, again + size, uint8_t{0}), size)
        << "size " << size << ": recycled block not zeroed";
    pool.Release(again, again_alloc);
  }
  const int64_t cached = pool.stats().cached_bytes;
  // Over the max pooled class: allocated and freed directly, never parked.
  int64_t big_alloc = 0;
  uint8_t* big = pool.Acquire(kMaxPooled + 1, &big_alloc);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big_alloc, kMaxPooled + 64);
  EXPECT_EQ(pool.stats().bypass, 1);
  pool.Release(big, big_alloc);
  EXPECT_EQ(pool.stats().cached_bytes, cached);
  EXPECT_EQ(pool.stats().live_bytes, 0);
  pool.Trim();
}

TEST(BufferPoolTest, CapAndBypassRespected) {
  BufferPool pool(/*max_cached_bytes=*/2048);
  int64_t a1 = 0;
  int64_t a2 = 0;
  uint8_t* b1 = pool.Acquire(2048, &a1);
  uint8_t* b2 = pool.Acquire(2048, &a2);
  pool.Release(b1, a1);
  pool.Release(b2, a2);  // over the cap: freed, not cached
  EXPECT_EQ(pool.stats().cached_bytes, 2048);

  // Oversized blocks bypass the classes entirely.
  int64_t big_alloc = 0;
  uint8_t* big = pool.Acquire((int64_t{1} << 24) + 1, &big_alloc);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(pool.stats().bypass, 1);
  EXPECT_GT(pool.stats().live_bytes, int64_t{1} << 24);
  pool.Release(big, big_alloc);
  EXPECT_EQ(pool.stats().cached_bytes, 2048);  // bypass never parks
  pool.Trim();
}

TEST(BufferPoolTest, TensorAllocationsFlowThroughGlobalPool) {
  BufferPool* pool = BufferPool::Global();
  const BufferPoolStats before = pool->stats();
  {
    Tensor t = Tensor::Empty(DType::kFloat64, 4096, 1).ValueOrDie();
    ASSERT_TRUE(t.defined());
    const BufferPoolStats during = pool->stats();
    EXPECT_GT(during.live_bytes, before.live_bytes);
  }
  // Drop + reallocate the same shape: the second allocation must be served
  // from the free list (the class is hot now).
  const int64_t hits_before = pool->stats().pool_hits;
  { Tensor t = Tensor::Empty(DType::kFloat64, 4096, 1).ValueOrDie(); }
  { Tensor t = Tensor::Empty(DType::kFloat64, 4096, 1).ValueOrDie(); }
  EXPECT_GT(pool->stats().pool_hits, hits_before);
}

TEST(BufferPoolTest, PipelinedQueryRecyclesMorselScratch) {
  Catalog catalog;
  tpch::DbgenOptions gen;
  gen.scale_factor = 0.01;
  TQP_CHECK_OK(tpch::GenerateAll(gen, &catalog));
  QueryCompiler compiler;
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.num_threads = 2;
  options.morsel_rows = 2000;
  auto compiled =
      compiler.CompileSql(tpch::QueryText(6).ValueOrDie(), catalog, options)
          .ValueOrDie();
  TQP_CHECK_OK(compiled.Run(catalog).status());  // warm the size classes
  const int64_t hits_before = BufferPool::Global()->stats().pool_hits;
  TQP_CHECK_OK(compiled.Run(catalog).status());
  EXPECT_GT(BufferPool::Global()->stats().pool_hits, hits_before);
}

}  // namespace
}  // namespace tqp
