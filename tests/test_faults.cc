// Tests for the fault-tolerant query lifecycle: the deterministic
// fault-injection harness (TQP_FAULT_SPEC grammar, per-site schedules),
// cooperative cancellation and deadlines (CancellationToken propagation
// through the thread pool and both runtime executors, scheduler-level
// Cancel / PreemptLowPriority / queued-too-long shedding), and the hardened
// spill tier (bounded write retries, backoff re-candidacy after hard
// failures, resident fallback when the disk is gone, clean fault-back
// errors). The standing invariant under test: every injected-fault or
// cancelled run either completes bit-identical to the fault-free run or
// fails cleanly with a structured Status and pool memory back at baseline.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "compile/compiler.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "runtime/session.h"
#include "runtime/thread_pool.h"
#include "tensor/buffer_pool.h"
#include "tensor/tensor.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace tqp {
namespace {

using BufferScope = BufferPool::QueryScope;

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
    ExpectTensorsIdentical(got.column(c).tensor(), want.column(c).tensor(),
                           what + " column " + want.schema().field(c).name);
  }
}

/// A 32768-row int64 tensor (exactly one 256 KiB pool size class) filled
/// with a seeded pattern, allocated under whatever scope is ambient.
Tensor PatternTensor(int64_t seed) {
  Tensor t = Tensor::Empty(DType::kInt64, 32768, 1).ValueOrDie();
  int64_t* p = t.mutable_data<int64_t>();
  for (int64_t i = 0; i < t.rows(); ++i) p[i] = seed * 1000003 + i;
  return t;
}

constexpr int64_t kBlock = 256 << 10;  // PatternTensor's pool block size

/// Counts how many of `hits` polls of `site` the injector fails.
int CountFires(FaultSite site, int hits) {
  int fired = 0;
  for (int i = 0; i < hits; ++i) {
    if (FaultHit(site)) ++fired;
  }
  return fired;
}

/// Every fault/cancel test must leave the process-wide injector disarmed.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(""));
  }
  void TearDown() override {
    TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(""));
  }
};

// ---- fault-spec grammar -----------------------------------------------------

TEST_F(FaultTest, EverySpecFiresOnEveryNthHit) {
  TQP_CHECK_OK(
      FaultInjector::Global()->SetSpecForTesting("spill_write:every=3"));
  // Hits 3, 6, 9 fire out of 9.
  EXPECT_EQ(CountFires(FaultSite::kSpillWrite, 9), 3);
  // Other sites stay disarmed.
  EXPECT_EQ(CountFires(FaultSite::kAlloc, 10), 0);
}

TEST_F(FaultTest, AfterSpecFiresOnEveryHitPastN) {
  TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting("alloc:after=4"));
  EXPECT_EQ(CountFires(FaultSite::kAlloc, 10), 6);
}

TEST_F(FaultTest, LimitCapsTotalFires) {
  TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(
      "step_exec:every=1,limit=2"));
  EXPECT_EQ(CountFires(FaultSite::kStepExec, 10), 2);
  EXPECT_EQ(FaultInjector::Global()->fired(FaultSite::kStepExec), 2);
}

TEST_F(FaultTest, MultiClauseSpecArmsEachSite) {
  TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(
      "spill_write:every=2;spill_read:after=1;task_submit:every=5"));
  EXPECT_EQ(CountFires(FaultSite::kSpillWrite, 4), 2);
  EXPECT_EQ(CountFires(FaultSite::kSpillRead, 4), 3);
  EXPECT_EQ(CountFires(FaultSite::kTaskSubmit, 5), 1);
}

TEST_F(FaultTest, ResetCountersReplaysTheSameSequence) {
  TQP_CHECK_OK(
      FaultInjector::Global()->SetSpecForTesting("spill_write:every=3"));
  std::vector<bool> first;
  for (int i = 0; i < 7; ++i) first.push_back(FaultHit(FaultSite::kSpillWrite));
  FaultInjector::Global()->ResetCountersForTesting();
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(FaultHit(FaultSite::kSpillWrite), first[static_cast<size_t>(i)])
        << "hit " << i << " diverged after reset — schedule not deterministic";
  }
}

TEST_F(FaultTest, MalformedSpecsAreRejected) {
  FaultInjector* inj = FaultInjector::Global();
  EXPECT_FALSE(inj->SetSpecForTesting("bogus_site:every=3").ok());
  EXPECT_FALSE(inj->SetSpecForTesting("spill_write").ok());
  EXPECT_FALSE(inj->SetSpecForTesting("spill_write:every=0").ok());
  EXPECT_FALSE(inj->SetSpecForTesting("spill_write:every=x").ok());
  EXPECT_FALSE(inj->SetSpecForTesting("spill_write:never=3").ok());
  // A rejected spec leaves everything disarmed.
  EXPECT_FALSE(inj->enabled());
  EXPECT_EQ(CountFires(FaultSite::kSpillWrite, 10), 0);
}

TEST_F(FaultTest, EmptySpecDisarms) {
  TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting("alloc:every=1"));
  EXPECT_TRUE(FaultInjector::Global()->enabled());
  TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(""));
  EXPECT_FALSE(FaultInjector::Global()->enabled());
  EXPECT_EQ(CountFires(FaultSite::kAlloc, 10), 0);
}

// ---- cancellation token -----------------------------------------------------

TEST(CancellationTokenTest, FirstReasonWinsAndIsIdempotent) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  TQP_CHECK_OK(token.CheckCancelled());
  token.RequestCancel(CancelReason::kUserCancelled);
  token.RequestCancel(CancelReason::kPreempted);  // loses: first reason wins
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kUserCancelled);
  EXPECT_EQ(token.CheckCancelled().code(), StatusCode::kCancelled);
  EXPECT_TRUE(token.CheckCancelled().IsTermination());
}

TEST(CancellationTokenTest, ExpiredDeadlineLatchesDeadlineExceeded) {
  CancellationToken token;
  token.SetDeadline(1);  // steady-clock epoch +1ns: long past
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadlineExceeded);
  EXPECT_EQ(token.CheckCancelled().code(), StatusCode::kDeadlineExceeded);
  // A user cancel after the latch does not overwrite the reason.
  token.RequestCancel(CancelReason::kUserCancelled);
  EXPECT_EQ(token.reason(), CancelReason::kDeadlineExceeded);
}

TEST(CancellationTokenTest, FutureDeadlineStaysRunnable) {
  CancellationToken token;
  token.SetDeadlineAfterMs(60000);
  EXPECT_FALSE(token.cancelled());
  TQP_CHECK_OK(token.CheckCancelled());
}

TEST(CancellationTokenTest, AttachNestsAndRestores) {
  EXPECT_EQ(CancellationToken::Current(), nullptr);
  CancellationToken outer;
  {
    CancellationToken::Attach a(&outer);
    EXPECT_EQ(CancellationToken::Current(), &outer);
    {
      CancellationToken::Attach mask(nullptr);
      EXPECT_EQ(CancellationToken::Current(), nullptr);
      TQP_CHECK_OK(CheckAmbientCancelled());
    }
    EXPECT_EQ(CancellationToken::Current(), &outer);
  }
  EXPECT_EQ(CancellationToken::Current(), nullptr);
}

TEST(CancellationTokenTest, AmbientTokenPropagatesThroughThreadPool) {
  // ThreadPool::Submit re-attaches the submitter's ambient token inside the
  // worker, so a morsel task's poll sees the cancelled state.
  runtime::ThreadPool pool(2);
  CancellationToken token;
  token.RequestCancel(CancelReason::kUserCancelled);
  CancellationToken::Attach attach(&token);
  std::promise<StatusCode> seen;
  auto seen_future = seen.get_future();
  pool.Submit([&seen] { seen.set_value(CheckAmbientCancelled().code()); });
  EXPECT_EQ(seen_future.get(), StatusCode::kCancelled);
}

TEST(CancellationTokenTest, ResolveDeadlinePrecedence) {
  EXPECT_EQ(ResolveDeadlineMs(250), 250);  // explicit positive wins
  EXPECT_EQ(ResolveDeadlineMs(-1), 0);     // explicit "none"
  // 0 defers to TQP_QUERY_TIMEOUT_MS, which is cached on first use and
  // unset in the test environment.
  EXPECT_EQ(ResolveDeadlineMs(0), 0);
}

// ---- spill-tier hardening ---------------------------------------------------

TEST_F(FaultTest, TransientSpillWriteFailuresRetryInPlace) {
  // every=2 fails every other write attempt: half the evictions need one
  // retry, and all of them succeed within the bounded attempt budget.
  TQP_CHECK_OK(
      FaultInjector::Global()->SetSpecForTesting("spill_write:every=2"));
  // Budget: the two registered values plus their two reference clones (the
  // clones are charged to the scope too); each scratch then displaces one
  // registered value.
  BufferScope scope(4 * kBlock);
  BufferScope::Attach attach(&scope);
  std::vector<Tensor> values(2);
  values[0] = PatternTensor(40);
  values[1] = PatternTensor(41);
  Tensor want0 = values[0].Clone().ValueOrDie();
  Tensor want1 = values[1].Clone().ValueOrDie();
  const uint64_t id0 = scope.AddSpillable(&values[0]);
  const uint64_t id1 = scope.AddSpillable(&values[1]);
  Tensor scratch1 = PatternTensor(42);
  Tensor scratch2 = PatternTensor(43);
  QueryMemoryStats mem = scope.stats();
  EXPECT_EQ(mem.spill_events, 2) << "both evictions must succeed via retry";
  EXPECT_EQ(mem.budget_overruns, 0);
  EXPECT_GT(FaultInjector::Global()->fired(FaultSite::kSpillWrite), 0)
      << "the schedule never actually injected a write failure";
  // Disarm before fault-back so the reads are clean, then verify payloads.
  TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(""));
  TQP_CHECK_OK(scope.Pin(id0));
  ExpectTensorsIdentical(values[0], want0, "value 0 after retried eviction");
  scope.Unpin(id0);
  TQP_CHECK_OK(scope.Pin(id1));
  ExpectTensorsIdentical(values[1], want1, "value 1 after retried eviction");
  scope.Unpin(id1);
  scope.Drop(id0);
  scope.Drop(id1);
}

TEST_F(FaultTest, HardSpillWriteFailureDegradesToResident) {
  // Every write attempt fails: the eviction hard-fails, the value stays
  // resident and bit-identical, the overrun is counted, and the query
  // simply keeps running over budget instead of dying.
  TQP_CHECK_OK(
      FaultInjector::Global()->SetSpecForTesting("spill_write:every=1"));
  // Budget: the registered value plus its reference clone; the scratch
  // allocation is what triggers the (failing) eviction attempt.
  BufferScope scope(2 * kBlock);
  BufferScope::Attach attach(&scope);
  std::vector<Tensor> values(1);
  values[0] = PatternTensor(50);
  Tensor want = values[0].Clone().ValueOrDie();
  const uint64_t id = scope.AddSpillable(&values[0]);
  Tensor scratch1 = PatternTensor(51);
  ASSERT_TRUE(values[0].defined()) << "hard write failure must not drop data";
  ExpectTensorsIdentical(values[0], want, "resident value after failed spill");
  QueryMemoryStats mem = scope.stats();
  EXPECT_EQ(mem.spill_events, 0);
  EXPECT_GT(mem.budget_overruns, 0)
      << "the overrun must be counted, not hidden";
  scope.Drop(id);
}

TEST_F(FaultTest, FailedEvictionReentersCandidacyAfterBackoff) {
  // limit=3 fails exactly the first eviction's three write attempts. After
  // the record's backoff window passes, the next allocation retries it and
  // succeeds — the old io_failed dead-end (permanently unevictable, budget
  // permanently overrun) is gone.
  TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(
      "spill_write:every=1,limit=3"));
  // Budget covers the value and its clone so the first eviction attempt
  // (the one the limit=3 schedule fails) happens at scratch1.
  BufferScope scope(2 * kBlock);
  BufferScope::Attach attach(&scope);
  std::vector<Tensor> values(1);
  values[0] = PatternTensor(60);
  Tensor want = values[0].Clone().ValueOrDie();
  const uint64_t id = scope.AddSpillable(&values[0]);
  Tensor scratch1 = PatternTensor(61);
  ASSERT_TRUE(values[0].defined());
  ASSERT_EQ(scope.stats().spill_events, 0);
  // First-failure backoff is 1ms; wait it out, then allocate again.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Tensor scratch2 = PatternTensor(62);
  EXPECT_FALSE(values[0].defined())
      << "after backoff the record must evict normally";
  EXPECT_EQ(scope.stats().spill_events, 1);
  TQP_CHECK_OK(scope.Pin(id));
  ExpectTensorsIdentical(values[0], want, "value after backoff re-eviction");
  scope.Unpin(id);
  scope.Drop(id);
}

TEST_F(FaultTest, SpillReadFailureIsCleanAndNonDestructive) {
  BufferScope scope(2 * kBlock);  // value + reference clone
  BufferScope::Attach attach(&scope);
  std::vector<Tensor> values(1);
  values[0] = PatternTensor(70);
  Tensor want = values[0].Clone().ValueOrDie();
  const uint64_t id = scope.AddSpillable(&values[0]);
  Tensor scratch = PatternTensor(71);
  ASSERT_FALSE(values[0].defined()) << "precondition: value spilled";
  // Every read attempt fails: Pin surfaces a structured I/O error, the
  // record stays on disk with its segment bytes intact.
  TQP_CHECK_OK(
      FaultInjector::Global()->SetSpecForTesting("spill_read:every=1"));
  const Status st = scope.Pin(id);
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_FALSE(values[0].defined());
  // The failure was transient, not destructive: with the fault cleared the
  // same record faults back bit-identical.
  TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(""));
  TQP_CHECK_OK(scope.Pin(id));
  ExpectTensorsIdentical(values[0], want, "value after transient read fault");
  scope.Unpin(id);
  scope.Drop(id);
}

TEST_F(FaultTest, AllocFaultSurfacesAsCleanOutOfMemory) {
  TQP_CHECK_OK(
      FaultInjector::Global()->SetSpecForTesting("alloc:every=1,limit=1"));
  auto result = Tensor::Empty(DType::kInt64, 32768, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfMemory)
      << result.status().ToString();
  // The limit is spent: the next allocation succeeds normally.
  TQP_CHECK_OK(Tensor::Empty(DType::kInt64, 32768, 1).status());
}

// ---- whole-query fault and cancellation behaviour ---------------------------

class FaultTpchTest : public FaultTest {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::DbgenOptions options;
    options.scale_factor = 0.01;
    TQP_CHECK_OK(tpch::GenerateAll(options, catalog_));
  }
  static Catalog* catalog_;
};

Catalog* FaultTpchTest::catalog_ = nullptr;

TEST_F(FaultTpchTest, PreCancelledQueryFailsFastAtPoolBaseline) {
  QueryCompiler compiler;
  const std::string sql = tpch::QueryText(1).ValueOrDie();
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.num_threads = 2;
  options.morsel_rows = 500;
  CompiledQuery compiled =
      compiler.CompileSql(sql, *catalog_, options).ValueOrDie();
  // Warm-up run: lazily materialized executor state (fused expression
  // programs) must not read as a leak in the baseline comparison.
  TQP_CHECK_OK(compiled.Run(*catalog_).status());
  const int64_t baseline = BufferPool::Global()->stats().live_bytes;
  CancellationToken token;
  token.RequestCancel(CancelReason::kUserCancelled);
  CancellationToken::Attach attach(&token);
  auto result = compiled.Run(*catalog_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_EQ(BufferPool::Global()->stats().live_bytes, baseline)
      << "cancelled run leaked pool memory";
}

TEST_F(FaultTpchTest, ExpiredAmbientDeadlineStopsEveryExecutor) {
  QueryCompiler compiler;
  const std::string sql = tpch::QueryText(6).ValueOrDie();
  // The serial backends poll at node/step boundaries, the pipelined one in
  // its morsel loops — the cooperative contract covers every target.
  for (ExecutorTarget target :
       {ExecutorTarget::kPipelined, ExecutorTarget::kStatic,
        ExecutorTarget::kEager, ExecutorTarget::kInterp}) {
    CompileOptions options;
    options.target = target;
    options.num_threads = 2;
    CompiledQuery compiled =
        compiler.CompileSql(sql, *catalog_, options).ValueOrDie();
    TQP_CHECK_OK(compiled.Run(*catalog_).status());  // warm-up (see above)
    const int64_t baseline = BufferPool::Global()->stats().live_bytes;
    CancellationToken token;
    token.SetDeadline(1);  // long past
    CancellationToken::Attach attach(&token);
    auto result = compiled.Run(*catalog_);
    ASSERT_FALSE(result.ok()) << ExecutorTargetName(target);
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << ExecutorTargetName(target) << ": " << result.status().ToString();
    EXPECT_EQ(BufferPool::Global()->stats().live_bytes, baseline)
        << ExecutorTargetName(target) << " leaked pool memory";
  }
}

TEST_F(FaultTpchTest, GenerousDeadlineOptionDoesNotFire) {
  QueryCompiler compiler;
  const std::string sql = tpch::QueryText(6).ValueOrDie();
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.deadline_ms = 60000;
  CompiledQuery compiled =
      compiler.CompileSql(sql, *catalog_, options).ValueOrDie();
  TQP_CHECK_OK(compiled.Run(*catalog_).status());
}

TEST_F(FaultTpchTest, InjectedStepFaultFailsCleanlyAtPoolBaseline) {
  QueryCompiler compiler;
  const std::string sql = tpch::QueryText(1).ValueOrDie();
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.num_threads = 2;
  options.morsel_rows = 500;
  CompiledQuery compiled =
      compiler.CompileSql(sql, *catalog_, options).ValueOrDie();
  TQP_CHECK_OK(compiled.Run(*catalog_).status());  // warm-up (see above)
  const int64_t baseline = BufferPool::Global()->stats().live_bytes;
  TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(
      "step_exec:after=1,limit=1"));
  auto result = compiled.Run(*catalog_);
  TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(""));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().ToString().find("injected fault"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(BufferPool::Global()->stats().live_bytes, baseline)
      << "leaked pool memory on step fault";
}

TEST_F(FaultTpchTest, InlineTaskSubmitFaultIsBitIdentical) {
  // kTaskSubmit is the benign perturbation: tasks run inline on the
  // submitting thread instead of asynchronously. Results must not change.
  QueryCompiler compiler;
  CompileOptions eager;
  eager.target = ExecutorTarget::kEager;
  for (int q : {1, 6}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    Table reference = compiler.CompileSql(sql, *catalog_, eager)
                          .ValueOrDie()
                          .Run(*catalog_)
                          .ValueOrDie();
    CompileOptions options;
    options.target = ExecutorTarget::kPipelined;
    options.num_threads = 2;
    options.morsel_rows = 500;
    CompiledQuery compiled =
        compiler.CompileSql(sql, *catalog_, options).ValueOrDie();
    TQP_CHECK_OK(
        FaultInjector::Global()->SetSpecForTesting("task_submit:every=2"));
    auto result = compiled.Run(*catalog_);
    TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(""));
    ExpectTablesIdentical(result.ValueOrDie(), reference,
                          "Q" + std::to_string(q) +
                              " with inline task submission");
  }
}

TEST_F(FaultTpchTest, FaultedRunsCompleteIdenticalOrFailCleanly) {
  // The harness's standing invariant, swept across fault specs: a faulted
  // run either produces the bit-identical result or fails with a structured
  // status, and either way pool memory returns to baseline.
  QueryCompiler compiler;
  CompileOptions eager;
  eager.target = ExecutorTarget::kEager;
  const std::string sql = tpch::QueryText(1).ValueOrDie();
  Table reference = compiler.CompileSql(sql, *catalog_, eager)
                        .ValueOrDie()
                        .Run(*catalog_)
                        .ValueOrDie();
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.num_threads = 2;
  options.morsel_rows = 500;
  options.memory_budget_bytes = 1 << 20;  // engage the spill tier
  CompiledQuery compiled =
      compiler.CompileSql(sql, *catalog_, options).ValueOrDie();
  TQP_CHECK_OK(compiled.Run(*catalog_).status());  // warm-up (see above)
  for (const char* spec :
       {"spill_write:every=3", "spill_write:every=1", "spill_read:every=2",
        "alloc:after=200,limit=1", "step_exec:every=40",
        "task_submit:every=3"}) {
    const int64_t baseline = BufferPool::Global()->stats().live_bytes;
    TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(spec));
    auto result = compiled.Run(*catalog_);
    TQP_CHECK_OK(FaultInjector::Global()->SetSpecForTesting(""));
    const bool completed = result.ok();
    if (completed) {
      ExpectTablesIdentical(result.ValueOrDie(), reference,
                            std::string("faulted run under ") + spec);
    } else {
      EXPECT_NE(result.status().code(), StatusCode::kOk);
    }
    // Drop the result before measuring: only the catalog stays live.
    result = Status::Internal("dropped");
    EXPECT_EQ(BufferPool::Global()->stats().live_bytes, baseline)
        << "run under " << spec << " leaked pool memory (completed="
        << completed << ")";
  }
}

// ---- scheduler-level cancellation ------------------------------------------

/// Holds the scheduler's only pool thread hostage until released, so a test
/// can operate on a query that is deterministically still queued. The
/// constructor blocks until the worker has actually picked the jam task up —
/// workers drain their queue LIFO, so without the handshake a late-starting
/// worker thread would pop a task submitted after the jam first.
class PoolJam {
 public:
  explicit PoolJam(runtime::ThreadPool* pool) {
    pool->Submit([this] {
      std::unique_lock<std::mutex> lock(mu_);
      engaged_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return engaged_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool engaged_ = false;
  bool released_ = false;
};

TEST_F(FaultTpchTest, CancelledQueuedQueryShedsWithoutExecuting) {
  runtime::ThreadPool pool(1);
  runtime::SchedulerOptions options;
  options.pool = &pool;
  options.max_concurrent = 1;
  options.compile.target = ExecutorTarget::kPipelined;
  runtime::QueryScheduler scheduler(catalog_, options);
  PoolJam jam(&pool);
  uint64_t id = 0;
  auto future = scheduler
                    .Submit(tpch::QueryText(6).ValueOrDie(),
                            runtime::QueryPriority::kNormal, &id)
                    .ValueOrDie();
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(scheduler.Cancel(id));
  jam.Release();
  runtime::QueryOutcome outcome = future.get();
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(outcome.termination_reason, CancelReason::kUserCancelled);
  EXPECT_EQ(outcome.stats.exec_nanos, 0) << "shed query must not execute";
  EXPECT_EQ(scheduler.counters().cancelled, 1);
  // The token table entry is gone with the query.
  EXPECT_FALSE(scheduler.Cancel(id));
}

TEST_F(FaultTpchTest, QueuedTooLongQueriesAreShedWithCounter) {
  runtime::ThreadPool pool(1);
  runtime::SchedulerOptions options;
  options.pool = &pool;
  options.max_concurrent = 1;
  options.compile.target = ExecutorTarget::kPipelined;
  options.compile.deadline_ms = 5;
  runtime::QueryScheduler scheduler(catalog_, options);
  PoolJam jam(&pool);
  auto future =
      scheduler.Submit(tpch::QueryText(6).ValueOrDie()).ValueOrDie();
  // Hold the worker past the deadline: the query expires while queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  jam.Release();
  runtime::QueryOutcome outcome = future.get();
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded)
      << outcome.status.ToString();
  EXPECT_EQ(outcome.termination_reason, CancelReason::kDeadlineExceeded);
  EXPECT_TRUE(outcome.stats.timed_out_in_queue);
  const runtime::SchedulerCounters counters = scheduler.counters();
  EXPECT_EQ(counters.timed_out, 1);
  EXPECT_EQ(counters.timed_out_queued, 1);
  obs::Counter* shed = obs::MetricsRegistry::Global()->FindCounter(
      "tqp_queries_timed_out_queued");
  ASSERT_NE(shed, nullptr);
  EXPECT_GE(shed->value(), 1);
}

TEST_F(FaultTpchTest, PreemptLowPriorityStopsOnlyLowQueries) {
  runtime::ThreadPool pool(1);
  runtime::SchedulerOptions options;
  options.pool = &pool;
  options.max_concurrent = 1;
  options.compile.target = ExecutorTarget::kPipelined;
  runtime::QueryScheduler scheduler(catalog_, options);
  PoolJam jam(&pool);
  auto low = scheduler
                 .Submit(tpch::QueryText(6).ValueOrDie(),
                         runtime::QueryPriority::kLow)
                 .ValueOrDie();
  auto normal = scheduler
                    .Submit(tpch::QueryText(6).ValueOrDie(),
                            runtime::QueryPriority::kNormal)
                    .ValueOrDie();
  EXPECT_EQ(scheduler.PreemptLowPriority(), 1);
  jam.Release();
  runtime::QueryOutcome low_outcome = low.get();
  ASSERT_FALSE(low_outcome.status.ok());
  EXPECT_EQ(low_outcome.termination_reason, CancelReason::kPreempted);
  runtime::QueryOutcome normal_outcome = normal.get();
  TQP_CHECK_OK(normal_outcome.status);
  EXPECT_EQ(scheduler.counters().preempted, 1);
}

TEST_F(FaultTpchTest, MidFlightCancelResolvesAndRestoresBaseline) {
  const int64_t baseline = BufferPool::Global()->stats().live_bytes;
  {
    runtime::SchedulerOptions options;
    options.compile.target = ExecutorTarget::kPipelined;
    options.compile.morsel_rows = 200;
    options.max_concurrent = 2;
    runtime::QueryScheduler scheduler(catalog_, options);
    uint64_t id = 0;
    auto future = scheduler
                      .Submit(tpch::QueryText(1).ValueOrDie(),
                              runtime::QueryPriority::kNormal, &id)
                      .ValueOrDie();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    scheduler.Cancel(id);
    runtime::QueryOutcome outcome = future.get();
    // The cancel races completion: both outcomes are legal, but a failure
    // must be the structured cancellation, not a crash or a hang.
    if (!outcome.status.ok()) {
      EXPECT_TRUE(outcome.status.IsTermination())
          << outcome.status.ToString();
      EXPECT_EQ(outcome.termination_reason, CancelReason::kUserCancelled);
    }
  }
  EXPECT_EQ(BufferPool::Global()->stats().live_bytes, baseline)
      << "cancelled query leaked pool memory";
}

// ---- concurrent cancellation stress (TSan-covered) --------------------------

TEST_F(FaultTpchTest, RandomCancellationStressLeavesPoolAtBaseline) {
  // Eight submitter threads race queries against cancellations issued at
  // random points. Every future must resolve (no hung promises), every
  // failure must be a structured termination, and with all results dropped
  // the shared pool must sit exactly at its pre-stress baseline.
  const int64_t baseline = BufferPool::Global()->stats().live_bytes;
  {
    runtime::SchedulerOptions options;
    options.compile.target = ExecutorTarget::kPipelined;
    options.compile.morsel_rows = 200;
    options.compile.memory_budget_bytes = 2 << 20;
    options.max_concurrent = 4;
    options.queue_capacity = 256;
    runtime::QueryScheduler scheduler(catalog_, options);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 3;
    std::atomic<int> resolved{0};
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&scheduler, &resolved, &bad, t] {
        std::mt19937 rng(static_cast<unsigned>(1234 + t));
        std::uniform_int_distribution<int> delay_us(0, 4000);
        for (int i = 0; i < kPerThread; ++i) {
          const int q = (t + i) % 2 == 0 ? 1 : 6;
          uint64_t id = 0;
          auto future_or =
              scheduler.Submit(tpch::QueryText(q).ValueOrDie(),
                               runtime::QueryPriority::kNormal, &id);
          if (!future_or.ok()) continue;  // queue full: fine under stress
          auto future = std::move(future_or).ValueOrDie();
          std::this_thread::sleep_for(
              std::chrono::microseconds(delay_us(rng)));
          if ((t + i) % 3 != 0) scheduler.Cancel(id);
          if (future.wait_for(std::chrono::seconds(120)) !=
              std::future_status::ready) {
            bad.fetch_add(1);  // hung future — the bug this test exists for
            continue;
          }
          runtime::QueryOutcome outcome = future.get();
          if (!outcome.status.ok() && !outcome.status.IsTermination()) {
            bad.fetch_add(1);
          }
          resolved.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(bad.load(), 0)
        << "hung futures or non-termination failures under cancel stress";
    EXPECT_GT(resolved.load(), 0);
  }  // scheduler drains and is destroyed before the baseline check
  EXPECT_EQ(BufferPool::Global()->stats().live_bytes, baseline)
      << "cancel stress leaked pool memory";
}

}  // namespace
}  // namespace tqp
