// Tests for the external merge sort, the one partitioned pipeline breaker:
// unit pins on the run-count and page-size policy, bit-identity against the
// stable argsort across thread counts x forced run counts, whole-query
// TPC-H differentials with the external sort routed in under the serving
// target (pipelined), the EXPLAIN ANALYZE breaker summary, and
// the budget floor: a sort-dominated program capped at 25% of its unspilled
// peak must hold budget_overruns == 0 with partitioned breakers on where the
// monolithic argsort overruns.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "compile/compiler.h"
#include "kernels/kernels.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "operators/partitioned/external_sort.h"
#include "operators/partitioned/partition.h"
#include "runtime/runtime.h"
#include "tensor/buffer_pool.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace tqp {
namespace {

using BufferScope = BufferPool::QueryScope;
using op::partitioned::ChoosePartitionBits;
using op::partitioned::ExternalSortRows;
using op::partitioned::kMaxPartitionBits;
using op::partitioned::kMinPartitionRows;
using op::partitioned::PageRows;
using op::partitioned::PartitionConfig;
using op::partitioned::PartitionStats;
using runtime::ParallelContext;
using runtime::ThreadPool;

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

Tensor Int64Keys(int64_t n, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Empty(DType::kInt64, n, 1).ValueOrDie();
  int64_t* p = t.mutable_data<int64_t>();
  for (int64_t i = 0; i < n; ++i) p[i] = rng.Uniform(0, domain - 1);
  return t;
}

/// Run counts {1, 4, 16} via forced_bits {0, 2, 4} (0 forced bits = the
/// monolithic argsort leg).
constexpr int kForcedBitsSweep[] = {0, 2, 4};
constexpr int kThreadSweep[] = {1, 2, 8};

// ---- partition policy pins --------------------------------------------------

TEST(PartitionPolicyTest, ThreadFanOutPicksTwoPartitionsPerWorker) {
  // Smallest k with 2^k >= 2*threads, no budget pressure.
  EXPECT_EQ(ChoosePartitionBits(1 << 20, 8, 0, 1), 1);
  EXPECT_EQ(ChoosePartitionBits(1 << 20, 8, 0, 2), 2);
  EXPECT_EQ(ChoosePartitionBits(1 << 20, 8, 0, 4), 3);
  EXPECT_EQ(ChoosePartitionBits(1 << 20, 8, 0, 8), 4);
  EXPECT_EQ(ChoosePartitionBits(0, 8, 0, 8), 0);
  EXPECT_EQ(ChoosePartitionBits(-5, 8, 0, 8), 0);
}

TEST(PartitionPolicyTest, BudgetRaisesBitsUntilPartitionFitsQuarter) {
  // 1 MiB budget, 8-byte rows: one partition's working set (rows doubled for
  // hash-table overhead) must fit in 256 KiB, i.e. <= 16384 rows -> k = 6.
  EXPECT_EQ(ChoosePartitionBits(1 << 20, 8, 1 << 20, 1), 6);
  // Twice the budget halves the required fan-out.
  EXPECT_EQ(ChoosePartitionBits(1 << 20, 8, 2 << 20, 1), 5);
  // A generous budget leaves the thread fan-out choice untouched.
  EXPECT_EQ(ChoosePartitionBits(1 << 20, 8, int64_t{1} << 40, 4), 3);
}

TEST(PartitionPolicyTest, NeverSplitsBelowMinPartitionRows) {
  // 8 threads want k = 4, but 8192 rows / 16 partitions = 512 < 4096.
  EXPECT_EQ(ChoosePartitionBits(8192, 8, 0, 8), 1);
  EXPECT_EQ(ChoosePartitionBits(4096, 8, 0, 8), 0);
  EXPECT_EQ(ChoosePartitionBits(2 * kMinPartitionRows, 8, 0, 8), 1);
}

TEST(PartitionPolicyTest, ClampsAtMaxPartitionBits) {
  EXPECT_EQ(ChoosePartitionBits(1 << 28, 8, 4096, 1), kMaxPartitionBits);
}

TEST(PartitionPolicyTest, PageRowsFloorAboveSpillMinimum) {
  PartitionConfig config;
  EXPECT_EQ(PageRows(config, 8), (256 << 10) / 8);  // default 256 KiB pages
  config.page_bytes = 1000;  // below the spill minimum: floored to 8192 bytes
  EXPECT_EQ(PageRows(config, 8), 1024);
  config.page_bytes = 0;
  EXPECT_EQ(PageRows(config, 1 << 20), 1);  // huge rows still page
}

// ---- differential vs the stable argsort -----------------------------------

TEST(ExternalSortTest, MatchesStableArgsortAcrossRunCounts) {
  const int64_t n = 80000;
  // Heavy duplication stresses the stable tie-break across run boundaries.
  Tensor ints = Int64Keys(n, 50, 41);
  Rng rng(42);
  Tensor doubles = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    doubles.mutable_data<double>()[i] =
        static_cast<double>(rng.Uniform(0, 50));
  }
  for (const Tensor* keys : {&ints, &doubles}) {
    for (bool ascending : {true, false}) {
      const Tensor serial =
          kernels::ArgsortRows(*keys, ascending).ValueOrDie();
      for (int threads : kThreadSweep) {
        ThreadPool pool(threads);
        ParallelContext ctx;
        ctx.pool = &pool;
        ctx.morsel_rows = 1000;
        for (int bits : kForcedBitsSweep) {
          PartitionConfig config;
          config.forced_bits = bits;
          PartitionStats stats;
          const Tensor part =
              ExternalSortRows(ctx, *keys, ascending, config, &stats)
                  .ValueOrDie();
          const std::string what =
              std::string("external sort ") + DTypeName(keys->dtype()) +
              (ascending ? " asc" : " desc") +
              " t=" + std::to_string(threads) +
              " bits=" + std::to_string(bits);
          ExpectTensorsIdentical(part, serial, what);
          EXPECT_EQ(stats.partitions, bits > 0 ? int64_t{1} << bits : 1)
              << what;
        }
      }
    }
  }
}

// ---- whole-query TPC-H differentials ----------------------------------------

class PartitionedTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::DbgenOptions options;
    options.scale_factor = 0.01;
    TQP_CHECK_OK(tpch::GenerateAll(options, catalog_));
  }
  static Catalog* catalog_;
};

Catalog* PartitionedTpchTest::catalog_ = nullptr;

/// External-sort invocations so far in this process (tqp_breaker_* counter).
int64_t BreakerInvocations() {
  return obs::MetricsRegistry::Global()
      ->GetCounter("tqp_breaker_invocations_total", "")
      ->value();
}

TEST_F(PartitionedTpchTest, PartitionedMatchesEager) {
  QueryCompiler compiler;
  for (int q : {1, 3, 18}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    CompileOptions eager;
    eager.target = ExecutorTarget::kEager;
    const Table reference = compiler.CompileSql(sql, *catalog_, eager)
                                .ValueOrDie()
                                .Run(*catalog_)
                                .ValueOrDie();
    for (int threads : kThreadSweep) {
      CompileOptions options;
      options.target = ExecutorTarget::kPipelined;
      options.num_threads = threads;
      options.morsel_rows = 1000;
      options.partitioned_breakers = true;
      const int64_t sorts_before = BreakerInvocations();
      const Table got = compiler.CompileSql(sql, *catalog_, options)
                            .ValueOrDie()
                            .Run(*catalog_)
                            .ValueOrDie();
      const std::string what = "Q" + std::to_string(q) + " partitioned at " +
                               std::to_string(threads) + " threads";
      ExpectTablesIdentical(got, reference, what);
      // Q1 sorts only its four result groups; a 1-thread executor has no
      // pool and runs the serial argsort.
      if (q != 1 && threads > 1) {
        EXPECT_GT(BreakerInvocations(), sorts_before)
            << what << ": no argsort reached the external sort";
      }
    }
  }
}

TEST_F(PartitionedTpchTest, BudgetedPartitionedRunStaysBitIdentical) {
  QueryCompiler compiler;
  for (int q : {3, 18}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    CompileOptions options;
    options.target = ExecutorTarget::kPipelined;
    options.num_threads = 2;
    options.morsel_rows = 1000;
    options.partitioned_breakers = true;
    CompiledQuery compiled =
        compiler.CompileSql(sql, *catalog_, options).ValueOrDie();
    int64_t uncapped_peak = 0;
    Table reference;
    {
      BufferScope scope;  // accounting only
      BufferScope::Attach attach(&scope);
      reference = compiled.Run(*catalog_).ValueOrDie();
      uncapped_peak = scope.stats().peak_live_bytes;
    }
    ASSERT_GT(uncapped_peak, 0);
    QueryMemoryStats mem;
    Table capped;
    {
      BufferScope scope(uncapped_peak / 4);
      BufferScope::Attach attach(&scope);
      capped = compiled.Run(*catalog_).ValueOrDie();
      mem = scope.stats();
    }
    const std::string what = "budgeted partitioned Q" + std::to_string(q);
    ExpectTablesIdentical(capped, reference, what);
    EXPECT_LE(mem.peak_live_bytes, uncapped_peak) << what;
    EXPECT_GT(mem.spilled_bytes, 0) << what << ": the budget never spilled";
  }
}

TEST_F(PartitionedTpchTest, ExplainAnalyzeReportsBreakerSummary) {
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.num_threads = 2;
  options.morsel_rows = 1000;
  options.partitioned_breakers = true;
  const std::string sql = tpch::QueryText(18).ValueOrDie();
  const auto result =
      obs::ExplainAnalyze(sql, *catalog_, options).ValueOrDie();
  EXPECT_NE(result.text.find("breaker external_sort"), std::string::npos)
      << result.text;
}

// ---- budget floor: partitioned breakers under 25% of the unspilled peak -----

TEST(PartitionedBudgetTest, BreakerDominatedProgramHoldsBudgetOnlyWhenOn) {
  // Four independent sort branches, phase-ordered (all products, then all
  // sorts, then all gathers, then all reductions) so every branch's 1 MiB
  // sort input is live at once: xi (2-col f64, uncharged input) -> Ai =
  // xi*xi (1 MiB) -> permi = argsort(Ai) (0.5 MiB) -> oi = gather(yi, permi)
  // -> ri = sum(oi) (scalar output). At a quarter of the unspilled peak
  // (~1.1 MiB) the monolithic argsort's irreducible floor — pinned 1 MiB
  // input plus 0.5 MiB output — must overrun, while the external merge
  // sort's spillable runs (input released after run formation, one page per
  // run pinned during the merge) keep every step under budget.
  constexpr int kBranches = 4;
  const int64_t n = 1 << 16;
  auto program = std::make_shared<TensorProgram>();
  std::vector<int> xs, ys;
  for (int i = 0; i < kBranches; ++i) {
    xs.push_back(program->AddInput("x" + std::to_string(i)));
    ys.push_back(program->AddInput("y" + std::to_string(i)));
  }
  AttrMap mul;
  mul.Set("op", static_cast<int64_t>(BinaryOpKind::kMul));
  AttrMap asc;
  asc.Set("ascending", true);
  AttrMap sum;
  sum.Set("op", static_cast<int64_t>(ReduceOpKind::kSum));
  std::vector<int> as, perms, os;
  for (int i = 0; i < kBranches; ++i) {
    as.push_back(program->AddNode(OpType::kBinary, {xs[i], xs[i]}, mul));
  }
  for (int i = 0; i < kBranches; ++i) {
    perms.push_back(program->AddNode(OpType::kArgsortRows, {as[i]}, asc));
  }
  for (int i = 0; i < kBranches; ++i) {
    os.push_back(program->AddNode(OpType::kGather, {ys[i], perms[i]}, {}));
  }
  for (int i = 0; i < kBranches; ++i) {
    program->MarkOutput(program->AddNode(OpType::kReduceAll, {os[i]}, sum));
  }

  Rng rng(81);
  std::vector<Tensor> inputs;
  for (int i = 0; i < kBranches; ++i) {
    Tensor x = Tensor::Empty(DType::kFloat64, n, 2).ValueOrDie();
    Tensor y = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
    for (int64_t j = 0; j < n * 2; ++j) {
      x.mutable_data<double>()[j] = rng.UniformDouble(-100, 100);
    }
    for (int64_t j = 0; j < n; ++j) {
      y.mutable_data<double>()[j] = rng.UniformDouble(-100, 100);
    }
    inputs.push_back(std::move(x));
    inputs.push_back(std::move(y));
  }

  // The executors OR the process-wide env default into their flag, so with
  // TQP_PARTITIONED_BREAKERS=1 (the breaker-budget CI job) a monolithic run
  // cannot be constructed and the contrast below proves nothing.
  if (op::partitioned::DefaultPartitionedBreakers()) {
    GTEST_SKIP() << "TQP_PARTITIONED_BREAKERS forces the flag on";
  }

  ExecOptions options;
  options.num_threads = 2;
  auto monolithic =
      MakeExecutor(ExecutorTarget::kPipelined, program, options).ValueOrDie();
  ExecOptions part_options = options;
  part_options.partitioned_breakers = true;
  auto partitioned =
      MakeExecutor(ExecutorTarget::kPipelined, program, part_options)
          .ValueOrDie();

  // The reference runs under a budget it never reaches, so its schedule is
  // the capped runs' one step at a time: an unbudgeted run overlaps the
  // independent branches, and their extra working sets would raise the peak
  // the budget below is derived from.
  int64_t uncapped_peak = 0;
  std::vector<Tensor> reference;
  {
    BufferScope scope(int64_t{1} << 40);
    BufferScope::Attach attach(&scope);
    reference = monolithic->Run(inputs).ValueOrDie();
    ASSERT_EQ(scope.stats().spill_events, 0);
    uncapped_peak = scope.stats().peak_live_bytes;
  }
  // All branches' sort inputs idle at once: the peak holds most of them.
  ASSERT_GT(uncapped_peak, kBranches * (n * 16));

  const int64_t budget = uncapped_peak / 4;
  QueryMemoryStats mono_mem;
  {
    BufferScope scope(budget);
    BufferScope::Attach attach(&scope);
    TQP_CHECK_OK(monolithic->Run(inputs).status());
    mono_mem = scope.stats();
  }
  EXPECT_GT(mono_mem.budget_overruns, 0)
      << "the monolithic argsort floor fits in a quarter of the peak — the "
         "partitioned run below proves nothing";

  QueryMemoryStats part_mem;
  std::vector<Tensor> capped;
  {
    BufferScope scope(budget);
    BufferScope::Attach attach(&scope);
    capped = partitioned->Run(inputs).ValueOrDie();
    part_mem = scope.stats();
  }
  ASSERT_EQ(capped.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ExpectTensorsIdentical(capped[i], reference[i],
                           "partitioned output " + std::to_string(i));
  }
  EXPECT_EQ(part_mem.budget_overruns, 0)
      << "partitioned breakers exceeded 25% of the unspilled peak";
  EXPECT_LE(part_mem.peak_live_bytes, budget);
  EXPECT_GT(part_mem.spill_events, 0) << "sort runs never spilled";
}

}  // namespace
}  // namespace tqp
