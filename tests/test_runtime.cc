// Tests for the morsel-driven parallel runtime: thread-pool correctness under
// stress and nesting, task-graph dependency ordering and error propagation,
// exactness of the morsel-parallel kernels against their serial
// counterparts, and the concurrent query-session layer (scheduler, admission
// queue, LRU plan cache). Whole-query differentials of the serving executor
// live in test_pipeline.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "compile/compiler.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/query_context.h"
#include "runtime/runtime.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace tqp {
namespace {

using runtime::ParallelContext;
using runtime::StepScheduler;
using runtime::TaskGraph;
using runtime::ThreadPool;

/// Occupies `pool`'s only worker until `gate` opens, so that what a test
/// submits next queues behind it. Under TQP_FAULT_SPEC=task_submit:every=N a
/// ThreadPool::Submit runs every Nth task inline on the caller: the jam
/// itself would then block the caller, and a later submission would run
/// instead of queueing. So with the seam armed, no-op probes first spend
/// submissions until one runs inline; the next N - 1 submissions queue.
void JamPool(ThreadPool* pool, std::shared_future<void> gate) {
  FaultInjector* faults = FaultInjector::Global();
  if (faults->enabled()) {
    const int64_t fired = faults->fired(FaultSite::kTaskSubmit);
    for (int i = 0; i < 64 && faults->fired(FaultSite::kTaskSubmit) == fired; ++i) {
      pool->Submit([] {});
    }
  }
  std::promise<void> jammed;
  pool->Submit([&jammed, gate] {
    jammed.set_value();
    gate.wait();
  });
  // The worker pops its own queue LIFO: a task submitted before it picks up
  // the gate would run ahead of it.
  jammed.get_future().wait();
}

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, SubmitStress) {
  ThreadPool pool(4);
  constexpr int kTasks = 10000;
  std::atomic<int> done{0};
  std::promise<void> all_done;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (done.fetch_add(1, std::memory_order_acq_rel) == kTasks - 1) {
        all_done.set_value();
      }
    });
  }
  all_done.get_future().wait();
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, TasksSubmittedFromWorkersRun) {
  ThreadPool pool(3);
  constexpr int kParents = 100;
  std::atomic<int> done{0};
  std::promise<void> all_done;
  for (int i = 0; i < kParents; ++i) {
    pool.Submit([&] {
      pool.Submit([&] {  // child task enqueued from a worker thread
        if (done.fetch_add(1, std::memory_order_acq_rel) == kParents - 1) {
          all_done.set_value();
        }
      });
    });
  }
  all_done.get_future().wait();
  EXPECT_EQ(done.load(), kParents);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int64_t kTotal = 100001;  // deliberately not a morsel multiple
  std::vector<std::atomic<int>> seen(kTotal);
  for (auto& s : seen) s.store(0);
  ASSERT_TRUE(pool.ParallelFor(kTotal, 997, [&](int64_t b, int64_t e) -> Status {
                    for (int64_t i = b; i < e; ++i) {
                      seen[static_cast<size_t>(i)].fetch_add(1);
                    }
                    return Status::OK();
                  })
                  .ok());
  for (int64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(seen[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForSlotPartialsSumExactly) {
  ThreadPool pool(4);
  constexpr int64_t kTotal = 200000;
  std::vector<int64_t> partial(static_cast<size_t>(pool.max_parallel_slots()), 0);
  ASSERT_TRUE(pool.ParallelFor(kTotal, 1024,
                               [&](int64_t b, int64_t e, int slot) -> Status {
                                 for (int64_t i = b; i < e; ++i) {
                                   partial[static_cast<size_t>(slot)] += i;
                                 }
                                 return Status::OK();
                               })
                  .ok());
  int64_t sum = 0;
  for (int64_t p : partial) sum += p;
  EXPECT_EQ(sum, kTotal * (kTotal - 1) / 2);
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstError) {
  ThreadPool pool(4);
  const Status st = pool.ParallelFor(10000, 100, [&](int64_t b, int64_t) -> Status {
    if (b >= 5000) return Status::Invalid("boom at " + std::to_string(b));
    return Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);  // small pool makes worker starvation most likely
  std::atomic<int64_t> total{0};
  ASSERT_TRUE(pool.ParallelFor(8, 1, [&](int64_t ob, int64_t oe) -> Status {
                    for (int64_t o = ob; o < oe; ++o) {
                      TQP_RETURN_NOT_OK(
                          pool.ParallelFor(1000, 50, [&](int64_t b, int64_t e) -> Status {
                            total.fetch_add(e - b);
                            return Status::OK();
                          }));
                    }
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(total.load(), 8 * 1000);
}

// ---- TaskGraph -------------------------------------------------------------

TEST(TaskGraphTest, RespectsDependencies) {
  ThreadPool pool(4);
  TaskGraph graph;
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
    return Status::OK();
  };
  // Diamond with a tail: 0 -> {1, 2} -> 3 -> 4.
  const int a = graph.AddTask([&] { return record(0); });
  const int b = graph.AddTask([&] { return record(1); }, {a});
  const int c = graph.AddTask([&] { return record(2); }, {a});
  const int d = graph.AddTask([&] { return record(3); }, {b, c});
  graph.AddTask([&] { return record(4); }, {d});
  ASSERT_TRUE(graph.Run(&pool).ok());
  ASSERT_EQ(order.size(), 5u);
  auto pos = [&](int id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
  EXPECT_LT(pos(3), pos(4));
}

TEST(TaskGraphTest, IndependentSubtreesAllExecute) {
  ThreadPool pool(4);
  TaskGraph graph;
  std::atomic<int> ran{0};
  std::vector<int> leaves;
  for (int t = 0; t < 8; ++t) {
    const int root = graph.AddTask([&] { ++ran; return Status::OK(); });
    const int mid = graph.AddTask([&] { ++ran; return Status::OK(); }, {root});
    leaves.push_back(mid);
  }
  graph.AddTask([&] { ++ran; return Status::OK(); }, leaves);
  ASSERT_TRUE(graph.Run(&pool).ok());
  EXPECT_EQ(ran.load(), 17);
}

TEST(TaskGraphTest, ErrorCancelsDependents) {
  ThreadPool pool(4);
  TaskGraph graph;
  std::atomic<bool> downstream_ran{false};
  const int a = graph.AddTask([] { return Status::OK(); });
  const int failing =
      graph.AddTask([] { return Status::Internal("task failed"); }, {a});
  graph.AddTask(
      [&] {
        downstream_ran.store(true);
        return Status::OK();
      },
      {failing});
  const Status st = graph.Run(&pool);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_FALSE(downstream_ran.load());
}

TEST(TaskGraphTest, SerialFallbackRunsInInsertionOrder) {
  TaskGraph graph;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    graph.AddTask([&order, i] {
      order.push_back(i);
      return Status::OK();
    });
  }
  ASSERT_TRUE(graph.Run(static_cast<ThreadPool*>(nullptr)).ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// ---- StepScheduler: priority-ordered step dispatch --------------------------

TEST(StepSchedulerTest, PriorityOrderOnJammedPool) {
  // Jam the pool's only worker so submitted steps pile up in the ready
  // queues; once released, the pump must drain strictly by priority class
  // (FIFO within a class), regardless of submission order.
  ThreadPool pool(1);
  StepScheduler steps(&pool);
  std::promise<void> release;
  JamPool(&pool, release.get_future().share());

  std::mutex mu;
  std::vector<int> order;
  std::promise<void> all_done;
  constexpr int kPerClass = 3;
  for (int i = 0; i < kPerClass; ++i) {
    for (int priority : {0, 1, 2}) {  // low first, to invert FIFO temptation
      steps.Submit(
          [&, priority] {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(priority);
            if (order.size() == 3 * kPerClass) all_done.set_value();
          },
          priority);
    }
  }
  release.set_value();
  all_done.get_future().wait();
  // The executed counter bumps after each step body returns; give the last
  // pump a moment to retire before reading it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (steps.executed() < 3 * kPerClass &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{2, 2, 2, 1, 1, 1, 0, 0, 0}));
  const auto submitted = steps.submitted();
  EXPECT_EQ(submitted[0], kPerClass);
  EXPECT_EQ(submitted[1], kPerClass);
  EXPECT_EQ(submitted[2], kPerClass);
  EXPECT_EQ(steps.executed(), 3 * kPerClass);
}

TEST(StepSchedulerTest, IndependentGraphTasksOverlap) {
  // Two dependency-free TaskGraph tasks dispatched through a StepScheduler
  // on a 2-thread pool must be in flight simultaneously: each waits (with a
  // generous deadline) for the other to start before returning.
  ThreadPool pool(2);
  StepScheduler steps(&pool);
  std::atomic<int> arrived{0};
  auto rendezvous = [&arrived]() -> Status {
    arrived.fetch_add(1, std::memory_order_acq_rel);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load(std::memory_order_acquire) < 2) {
      if (std::chrono::steady_clock::now() > deadline) {
        return Status::Internal("independent tasks did not overlap");
      }
      std::this_thread::yield();
    }
    return Status::OK();
  };
  TaskGraph graph;
  graph.AddTask(rendezvous);
  graph.AddTask(rendezvous);
  const Status status = graph.Run(&steps);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// ---- QueryContext: one query's ambient state follows its work -------------

/// What a task observed about the thread it ran on.
struct SeenContext {
  runtime::QueryContext context;
  std::thread::id thread;
};

/// A task that reports the context it ran under, then opens a span
/// (recorded only under a trace session).
std::function<void()> ReportContext(std::promise<SeenContext>* seen) {
  return [seen] {
    const SeenContext here{runtime::QueryContext::Capture(),
                           std::this_thread::get_id()};
    obs::TraceSpan span("test", "task");
    seen->set_value(here);
  };
}

void ExpectSameContext(const runtime::QueryContext& got,
                       const runtime::QueryContext& want,
                       const std::string& what) {
  EXPECT_EQ(got.scope, want.scope) << what;
  EXPECT_EQ(got.token, want.token) << what;
  EXPECT_EQ(got.trace.session, want.trace.session) << what;
  EXPECT_EQ(got.trace.query_id, want.trace.query_id) << what;
  EXPECT_EQ(got.trace.parent_span, want.trace.parent_span) << what;
  EXPECT_EQ(got.priority, want.priority) << what;
}

TEST(QueryContextTest, SubmittedWorkRunsUnderTheSubmittersContext) {
  // A non-worker thread attaches a query context and submits through both
  // paths, then waits on futures without helping, so pool workers run the
  // work. Each task must see the submitter's scope, token, trace session,
  // query id, parent span and priority; the step a pump pops next, submitted
  // outside any query, must see none of them, and the pump running it must
  // not hold the query's trace session open.
  ThreadPool pool(1);
  StepScheduler steps(&pool);
  FaultInjector* faults = FaultInjector::Global();
  const std::thread::id submitter = std::this_thread::get_id();
  BufferPool::QueryScope scope;
  CancellationToken token;
  obs::TraceSession session;
  uint64_t submit_span = 0;
  runtime::QueryContext want;
  std::promise<SeenContext> by_pool, by_step, by_next;
  std::promise<void> release, finish;
  int64_t fired_before_steps = 0;
  {
    obs::TraceContext root(&session, session.NextQueryId());
    obs::TraceSpan span("test", "submit");
    submit_span = obs::CaptureTraceContext().parent_span;
    want = runtime::QueryContext::Capture();
    want.scope = &scope;
    want.token = &token;
    want.priority = static_cast<int>(runtime::QueryPriority::kHigh);
    runtime::QueryContext::Attach attach(want);

    // The task_submit fault seam runs a hit submission inline instead.
    const int64_t fired = faults->fired(FaultSite::kTaskSubmit);
    pool.Submit(ReportContext(&by_pool));
    const SeenContext seen = by_pool.get_future().get();
    ExpectSameContext(seen.context, want, "ThreadPool::Submit");
    if (faults->fired(FaultSite::kTaskSubmit) == fired) {
      EXPECT_NE(seen.thread, submitter) << "ThreadPool::Submit";
    }

    // A TaskGraph dispatched through a StepScheduler tags its steps with the
    // context's priority (a one-worker pool would run the graph inline).
    {
      ThreadPool graph_pool(2);
      StepScheduler graph_steps(&graph_pool);
      TaskGraph graph;
      graph.AddTask([] { return Status::OK(); });
      graph.AddTask([] { return Status::OK(); });
      ASSERT_TRUE(graph.Run(&graph_steps).ok());
      EXPECT_EQ(graph_steps.submitted(),
                (std::array<int64_t, StepScheduler::kNumPriorities>{0, 0, 2}));
    }

    // Jam the only worker so the next two steps queue for one pump.
    JamPool(&pool, release.get_future().share());
    fired_before_steps = faults->fired(FaultSite::kTaskSubmit);
    steps.Submit(ReportContext(&by_step), want.priority);
  }
  // The next step stays running until the session has been read (unless a
  // fault ran it inline on this thread).
  std::shared_future<void> finished = finish.get_future().share();
  steps.Submit(
      [report = ReportContext(&by_next), finished, submitter] {
        report();
        if (std::this_thread::get_id() != submitter) finished.wait();
      },
      static_cast<int>(runtime::QueryPriority::kNormal));
  release.set_value();
  const SeenContext seen_step = by_step.get_future().get();
  const SeenContext seen_next = by_next.get_future().get();
  // The session's reads wait for every context counted into it; a pump that
  // inherited the query's context would hold them until the step finishes.
  auto events = std::async(std::launch::async, [&session] {
    return session.events();
  });
  EXPECT_EQ(events.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "a pump holds the query's trace session";
  finish.set_value();
  ExpectSameContext(seen_step.context, want, "StepScheduler::Submit");
  ExpectSameContext(seen_next.context, runtime::QueryContext{}, "next step");
  if (faults->fired(FaultSite::kTaskSubmit) == fired_before_steps) {
    EXPECT_NE(seen_step.thread, submitter) << "StepScheduler::Submit";
    EXPECT_NE(seen_next.thread, submitter) << "next step";
  }
  EXPECT_EQ(steps.submitted(),
            (std::array<int64_t, StepScheduler::kNumPriorities>{0, 1, 1}));

  // Both traced tasks recorded into the session under the submitting span;
  // the untraced step recorded nothing.
  int task_spans = 0;
  for (const obs::TraceEvent& e : events.get()) {
    if (std::string(e.name) != "task") continue;
    ++task_spans;
    EXPECT_EQ(e.parent_id, submit_span);
    EXPECT_EQ(e.query_id, want.trace.query_id);
  }
  EXPECT_EQ(task_spans, 2);
}

// ---- Parallel kernels / operators: exactness vs serial ---------------------

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

ParallelContext SmallMorselContext(ThreadPool* pool) {
  ParallelContext ctx;
  ctx.pool = pool;
  ctx.morsel_rows = 1000;  // force many morsels at test sizes
  ctx.min_parallel_rows = 128;
  return ctx;
}

TEST(ParallelKernelTest, ReductionsMatchSerial) {
  ThreadPool pool(4);
  const ParallelContext ctx = SmallMorselContext(&pool);
  Rng rng(321);
  const int64_t n = 60000;
  Tensor ints = Tensor::Empty(DType::kInt64, n, 1).ValueOrDie();
  Tensor doubles = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  Tensor ids = Tensor::Empty(DType::kInt64, n, 1).ValueOrDie();
  const int64_t groups = 37;
  for (int64_t i = 0; i < n; ++i) {
    ints.mutable_data<int64_t>()[i] = rng.Uniform(-1000, 1000);
    doubles.mutable_data<double>()[i] = rng.UniformDouble(-5, 5);
    ids.mutable_data<int64_t>()[i] = rng.Uniform(0, groups - 1);
  }
  for (ReduceOpKind op : {ReduceOpKind::kSum, ReduceOpKind::kMin,
                          ReduceOpKind::kMax, ReduceOpKind::kCount}) {
    ExpectTensorsIdentical(runtime::ParallelReduceAll(ctx, op, ints).ValueOrDie(),
                           kernels::ReduceAll(op, ints).ValueOrDie(),
                           "reduce_all int");
    // Float sums take the serial path internally; min/max/count parallelize.
    ExpectTensorsIdentical(runtime::ParallelReduceAll(ctx, op, doubles).ValueOrDie(),
                           kernels::ReduceAll(op, doubles).ValueOrDie(),
                           "reduce_all double");
    ExpectTensorsIdentical(
        runtime::ParallelSegmentedReduce(ctx, op, ints, ids, groups).ValueOrDie(),
        kernels::SegmentedReduce(op, ints, ids, groups).ValueOrDie(),
        "segmented int");
    ExpectTensorsIdentical(
        runtime::ParallelSegmentedReduce(ctx, op, doubles, ids, groups).ValueOrDie(),
        kernels::SegmentedReduce(op, doubles, ids, groups).ValueOrDie(),
        "segmented double");
  }
  // Out-of-range segment ids fail in both.
  ids.mutable_data<int64_t>()[n / 2] = groups + 5;
  EXPECT_FALSE(runtime::ParallelSegmentedReduce(ctx, ReduceOpKind::kSum, ints, ids,
                                                groups)
                   .ok());
}

TEST(ParallelKernelTest, FloatSumsBitIdenticalToSerialOrder) {
  const int64_t n = 60000;
  const int64_t groups = 37;
  Rng rng(31);
  Tensor values = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  Tensor ids = Tensor::Empty(DType::kInt64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    // Wide magnitude spread makes float addition order-sensitive, so any
    // reordering of a segment's additions shows up in the bit pattern.
    values.mutable_data<double>()[i] =
        rng.UniformDouble(-1, 1) * std::pow(10.0, rng.Uniform(-12, 12));
    ids.mutable_data<int64_t>()[i] = rng.Uniform(0, groups - 1);
  }
  const Tensor serial =
      kernels::SegmentedReduce(ReduceOpKind::kSum, values, ids, groups)
          .ValueOrDie();
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ParallelContext ctx;
    ctx.pool = &pool;
    ctx.morsel_rows = 1000;
    // Float sums run the serial kernel at every thread count.
    ExpectTensorsIdentical(
        runtime::ParallelSegmentedReduce(ctx, ReduceOpKind::kSum, values, ids,
                                         groups)
            .ValueOrDie(),
        serial, "float sums t=" + std::to_string(threads));
  }
  // Out-of-range ids fail like the serial kernel.
  ThreadPool pool(2);
  ParallelContext ctx;
  ctx.pool = &pool;
  ids.mutable_data<int64_t>()[n / 2] = groups + 3;
  EXPECT_FALSE(runtime::ParallelSegmentedReduce(ctx, ReduceOpKind::kSum, values,
                                                ids, groups)
                   .ok());
}

TEST(ParallelKernelTest, ConcatRowsMatchesSerial) {
  ThreadPool pool(4);
  const ParallelContext ctx = SmallMorselContext(&pool);
  Rng rng(55);
  // Numeric parts of assorted lengths.
  std::vector<Tensor> parts;
  for (int64_t rows : {4000, 1, 0, 9000, 2500}) {
    Tensor t = Tensor::Empty(DType::kInt64, rows, 1).ValueOrDie();
    for (int64_t i = 0; i < rows; ++i) {
      t.mutable_data<int64_t>()[i] = rng.Uniform(-1000, 1000);
    }
    parts.push_back(std::move(t));
  }
  ExpectTensorsIdentical(runtime::ParallelConcatRows(ctx, parts).ValueOrDie(),
                         kernels::ConcatRows(parts).ValueOrDie(), "concat int64");
  // Padded uint8 string parts with differing widths (the LEFT JOIN shape).
  std::vector<Tensor> strings;
  for (auto [rows, width] : std::vector<std::pair<int64_t, int64_t>>{
           {6000, 8}, {4000, 3}, {5000, 8}}) {
    Tensor t = Tensor::Empty(DType::kUInt8, rows, width).ValueOrDie();
    for (int64_t i = 0; i < rows * width; ++i) {
      t.mutable_data<uint8_t>()[i] = static_cast<uint8_t>(rng.Uniform('a', 'z'));
    }
    strings.push_back(std::move(t));
  }
  ExpectTensorsIdentical(runtime::ParallelConcatRows(ctx, strings).ValueOrDie(),
                         kernels::ConcatRows(strings).ValueOrDie(),
                         "concat padded strings");
}

TEST(ParallelKernelTest, StableArgsortMatchesSerial) {
  ThreadPool pool(4);
  const ParallelContext ctx = SmallMorselContext(&pool);
  Rng rng(99);
  const int64_t n = 80000;
  // Heavy duplication stresses stability: any instability would reorder ties.
  Tensor keys = Tensor::Empty(DType::kInt64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    keys.mutable_data<int64_t>()[i] = rng.Uniform(0, 50);
  }
  for (bool ascending : {true, false}) {
    ExpectTensorsIdentical(
        runtime::ParallelArgsortRows(ctx, keys, ascending).ValueOrDie(),
        kernels::ArgsortRows(keys, ascending).ValueOrDie(), "argsort int64");
  }
}

TEST(ParallelKernelTest, GroupIdsMatchSerialOnBothPaths) {
  Rng rng(77);
  const int64_t n = 40000;
  Tensor small = Tensor::Empty(DType::kInt64, n, 1).ValueOrDie();
  Tensor reals = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    small.mutable_data<int64_t>()[i] = rng.Uniform(-50, 49);
    reals.mutable_data<double>()[i] = static_cast<double>(rng.Uniform(0, 300)) / 7;
  }
  TensorProgram program;
  const int a = program.AddInput("a");
  const int b = program.AddInput("b");
  const int dense = program.AddNode(OpType::kGroupIds, {a});
  const int sorted = program.AddNode(OpType::kGroupIds, {b, a});
  std::vector<Tensor> values(static_cast<size_t>(program.num_nodes()));
  values[static_cast<size_t>(a)] = small;
  values[static_cast<size_t>(b)] = reals;
  auto* invocations = obs::MetricsRegistry::Global()->GetCounter(
      "tqp_breaker_invocations_total", "");
  for (const auto& [node, keys] :
       std::vector<std::pair<int, std::vector<Tensor>>>{{dense, {small}},
                                                        {sorted, {reals, small}}}) {
    kernels::GroupIdsPath path;
    const Tensor serial = kernels::GroupIds(keys, &path).ValueOrDie();
    EXPECT_EQ(path.dense, node == dense);
    for (int threads : {1, 2, 8}) {
      for (bool partitioned : {false, true}) {
        ThreadPool pool(threads);
        ParallelContext ctx = SmallMorselContext(&pool);
        ctx.partitioned_breakers = partitioned;
        const int64_t before = invocations->value();
        const std::string what = std::string(node == dense ? "dense" : "sort") +
                                 " t=" + std::to_string(threads) +
                                 (partitioned ? " partitioned" : "");
        ExpectTensorsIdentical(
            runtime::ParallelEvalNode(ctx, program, program.node(node), values)
                .ValueOrDie(),
            serial, what);
        // The sort path sorts through the external sort when asked to.
        EXPECT_EQ(invocations->value() > before, partitioned && node == sorted)
            << what;
      }
    }
  }
}

// ---- Plan cache + session layer --------------------------------------------

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

TEST(PlanCacheTest, NormalizeSqlCanonicalizes) {
  EXPECT_EQ(runtime::NormalizeSql("SELECT  *\n FROM t ;"), "select * from t");
  EXPECT_EQ(runtime::NormalizeSql("select * from t"),
            runtime::NormalizeSql("  SELECT *   FROM T"));
  // Literal case and spacing are significant.
  EXPECT_EQ(runtime::NormalizeSql("SELECT 'A  B' FROM t"), "select 'A  B' from t");
  EXPECT_NE(runtime::NormalizeSql("SELECT 'ABC' FROM t"),
            runtime::NormalizeSql("SELECT 'abc' FROM t"));
  // Escaped quote inside a literal does not end the literal.
  EXPECT_EQ(runtime::NormalizeSql("SELECT 'it''S' FROM T"), "select 'it''S' from t");
}

TEST(PlanCacheTest, LruEvictionAndHitCounting) {
  runtime::PlanCache cache(2);
  auto plan = std::make_shared<const CompiledQuery>();
  cache.Insert("q1", plan);
  cache.Insert("q2", plan);
  EXPECT_EQ(cache.Lookup("q1"), plan);  // bumps q1
  cache.Insert("q3", plan);             // evicts q2 (LRU)
  EXPECT_EQ(cache.Lookup("q2"), nullptr);
  EXPECT_NE(cache.Lookup("q1"), nullptr);
  EXPECT_NE(cache.Lookup("q3"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 1);
}

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::DbgenOptions options;
    options.scale_factor = 0.005;
    TQP_CHECK_OK(tpch::GenerateAll(options, catalog_));
  }
  static Catalog* catalog_;
};

Catalog* SessionTest::catalog_ = nullptr;

TEST_F(SessionTest, ConcurrentSessionsProduceIdenticalResults) {
  runtime::SchedulerOptions options;
  options.max_concurrent = 4;
  runtime::QueryScheduler scheduler(catalog_, options);
  const std::string sql = tpch::QueryText(6).ValueOrDie();

  QueryCompiler compiler;
  CompileOptions direct;
  direct.target = ExecutorTarget::kEager;
  Table expected = compiler.CompileSql(sql, *catalog_, direct)
                       .ValueOrDie()
                       .Run(*catalog_)
                       .ValueOrDie();

  constexpr int kSessions = 12;
  std::vector<std::future<runtime::QueryOutcome>> futures;
  for (int i = 0; i < kSessions; ++i) {
    auto future_or = scheduler.Submit(sql);
    ASSERT_TRUE(future_or.ok()) << future_or.status().ToString();
    futures.push_back(std::move(future_or).ValueOrDie());
  }
  int compiles = 0;
  for (auto& f : futures) {
    runtime::QueryOutcome outcome = f.get();
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    ExpectTablesIdentical(outcome.table, expected, "concurrent session result");
    EXPECT_GE(outcome.stats.exec_nanos, 0);
    if (!outcome.stats.cache_hit) ++compiles;
  }
  const auto counters = scheduler.counters();
  EXPECT_EQ(counters.admitted, kSessions);
  EXPECT_EQ(counters.completed, kSessions);
  EXPECT_EQ(counters.failed, 0);
  // In-flight dedup: concurrent workers with the same statement wait for the
  // first compilation instead of compiling redundantly.
  EXPECT_EQ(compiles, 1);
  EXPECT_EQ(scheduler.plan_cache().size(), 1u);
}

TEST_F(SessionTest, SerialSchedulerHitsPlanCacheDeterministically) {
  runtime::SchedulerOptions options;
  options.max_concurrent = 1;
  runtime::QueryScheduler scheduler(catalog_, options);
  runtime::QuerySession session(&scheduler, "alice");
  // Whitespace/case variants of one statement share a single plan.
  const std::vector<std::string> variants = {
      "SELECT COUNT(*) AS n FROM region",
      "select count(*)   AS n FROM region",
      "  SELECT COUNT(*) as n from region ;",
  };
  for (const std::string& sql : variants) {
    auto result = session.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.ValueOrDie().num_rows(), 1);
  }
  EXPECT_EQ(session.queries_ok(), static_cast<int64_t>(variants.size()));
  EXPECT_EQ(scheduler.plan_cache().misses(), 1);
  EXPECT_EQ(scheduler.plan_cache().hits(),
            static_cast<int64_t>(variants.size()) - 1);
}

TEST_F(SessionTest, BoundedAdmissionQueueRejects) {
  runtime::SchedulerOptions options;
  options.max_concurrent = 1;
  options.queue_capacity = 0;  // every submission must be rejected
  runtime::QueryScheduler scheduler(catalog_, options);
  auto future_or = scheduler.Submit("SELECT COUNT(*) AS n FROM region");
  EXPECT_FALSE(future_or.ok());
  EXPECT_EQ(scheduler.counters().rejected, 1);
  EXPECT_EQ(scheduler.counters().admitted, 0);
}

TEST_F(SessionTest, CompileErrorsSurfaceInOutcome) {
  runtime::QueryScheduler scheduler(catalog_);
  runtime::QuerySession session(&scheduler, "bob");
  auto result = session.Execute("SELECT nope FROM missing_table");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(session.queries_failed(), 1);
  EXPECT_EQ(scheduler.counters().failed, 1);
}

// ---- One cross-query pool, priorities, backpressure -------------------------

TEST_F(SessionTest, ConcurrentSchedulersShareOneProcessWidePool) {
  // No per-scheduler worker threads and no per-executor pools: every
  // scheduler (and through CompileOptions::pool, every compiled executor)
  // lands on the same process-wide ThreadPool.
  runtime::QueryScheduler s1(catalog_);
  runtime::QueryScheduler s2(catalog_);
  EXPECT_EQ(s1.pool(), ThreadPool::Global());
  EXPECT_EQ(s1.pool(), s2.pool());
  EXPECT_EQ(s1.options().compile.pool, ThreadPool::Global());

  // Executors compiled for the scheduler bind the shared pool directly.
  auto program = std::make_shared<TensorProgram>();
  const int in = program->AddInput("x");
  AttrMap add;
  add.Set("op", static_cast<int64_t>(BinaryOpKind::kAdd));
  program->MarkOutput(program->AddNode(OpType::kBinary, {in, in}, add));
  ExecOptions exec_options;
  exec_options.pool = s1.pool();
  exec_options.num_threads = 7;  // an explicit pool must win over this
  PipelinedExecutor pipelined(program, exec_options);
  EXPECT_EQ(pipelined.pool(), ThreadPool::Global());

  // Both schedulers execute concurrently on that one pool.
  const std::string sql = tpch::QueryText(6).ValueOrDie();
  auto f1 = s1.Submit(sql).ValueOrDie();
  auto f2 = s2.Submit(sql).ValueOrDie();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
}

TEST_F(SessionTest, HighPriorityDispatchesBeforeEarlierLowPriority) {
  // Jam a private 1-thread pool so every submission queues before any job is
  // popped; the pop order is then purely priority-driven and observable
  // through the plan cache: the kHigh job (submitted second) compiles, the
  // kLow copy of the same statement hits the cache afterwards.
  ThreadPool pool(1);
  std::promise<void> release;
  JamPool(&pool, release.get_future().share());

  runtime::SchedulerOptions options;
  options.pool = &pool;
  options.max_concurrent = 1;
  runtime::QueryScheduler scheduler(catalog_, options);
  const std::string sql = "SELECT COUNT(*) AS n FROM region";
  auto low = scheduler.Submit(sql, runtime::QueryPriority::kLow).ValueOrDie();
  auto high = scheduler.Submit(sql, runtime::QueryPriority::kHigh).ValueOrDie();
  release.set_value();

  runtime::QueryOutcome high_outcome = high.get();
  runtime::QueryOutcome low_outcome = low.get();
  ASSERT_TRUE(high_outcome.status.ok()) << high_outcome.status.ToString();
  ASSERT_TRUE(low_outcome.status.ok()) << low_outcome.status.ToString();
  EXPECT_FALSE(high_outcome.stats.cache_hit);  // ran first, compiled
  EXPECT_TRUE(low_outcome.stats.cache_hit);    // ran second, reused the plan
}

TEST_F(SessionTest, BackpressureShedsLowPriorityFirst) {
  ThreadPool pool(1);
  std::promise<void> release;
  JamPool(&pool, release.get_future().share());

  runtime::SchedulerOptions options;
  options.pool = &pool;
  options.max_concurrent = 1;
  options.queue_capacity = 4;
  options.backpressure_watermark = 0.5;  // kLow shed once 2 queries wait
  runtime::QueryScheduler scheduler(catalog_, options);
  const std::string sql = "SELECT COUNT(*) AS n FROM region";

  ASSERT_TRUE(scheduler.Submit(sql).ok());
  ASSERT_TRUE(scheduler.Submit(sql).ok());
  // Watermark reached: low-priority work is shed, normal/high still admit.
  auto shed = scheduler.Submit(sql, runtime::QueryPriority::kLow);
  EXPECT_FALSE(shed.ok());
  ASSERT_TRUE(scheduler.Submit(sql, runtime::QueryPriority::kNormal).ok());
  ASSERT_TRUE(scheduler.Submit(sql, runtime::QueryPriority::kHigh).ok());
  // Hard capacity still applies to everyone.
  auto full = scheduler.Submit(sql, runtime::QueryPriority::kHigh);
  EXPECT_FALSE(full.ok());

  const auto counters = scheduler.counters();
  EXPECT_EQ(counters.admitted, 4);
  EXPECT_EQ(counters.rejected, 2);
  EXPECT_EQ(counters.shed_low_priority, 1);
  release.set_value();  // drain; the destructor waits for completion
}

TEST_F(SessionTest, IdleQueueNeverShedsLowPriority) {
  // Regression: a small watermark over a small capacity must not truncate to
  // a threshold of zero (which shed every kLow query on an idle scheduler).
  runtime::SchedulerOptions options;
  options.queue_capacity = 8;
  options.backpressure_watermark = 0.1;  // ceil(0.8) == 1, not 0
  runtime::QueryScheduler scheduler(catalog_, options);
  auto admitted =
      scheduler.Submit("SELECT COUNT(*) AS n FROM region",
                       runtime::QueryPriority::kLow);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_TRUE(admitted.ValueOrDie().get().status.ok());
  EXPECT_EQ(scheduler.counters().shed_low_priority, 0);
}

TEST_F(SessionTest, DestructionFromPoolThreadDrainsWithoutDeadlock) {
  // Regression: a scheduler created, used and destroyed *inside a task on
  // its own pool* must still drain — the destructor has to run pool tasks
  // cooperatively instead of blocking the only worker that could execute
  // its queued queries.
  ThreadPool pool(1);
  std::promise<bool> done;
  pool.Submit([&] {
    runtime::SchedulerOptions options;
    options.pool = &pool;
    runtime::QueryScheduler scheduler(catalog_, options);
    auto future_or = scheduler.Submit("SELECT COUNT(*) AS n FROM region");
    bool ok = future_or.ok();
    // Scheduler destructs here, on the pool's single worker thread, with the
    // query still queued behind this very task.
    done.set_value(ok);
  });
  std::future<bool> finished = done.get_future();
  ASSERT_EQ(finished.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "scheduler drain deadlocked";
  EXPECT_TRUE(finished.get());
}

TEST_F(SessionTest, SchedulerRunsPipelinedBackend) {
  runtime::SchedulerOptions options;
  options.compile.target = ExecutorTarget::kPipelined;
  options.compile.morsel_rows = 500;
  runtime::QueryScheduler scheduler(catalog_, options);
  runtime::QuerySession session(&scheduler, "carol");

  QueryCompiler compiler;
  CompileOptions direct;
  direct.target = ExecutorTarget::kEager;
  const std::string sql = tpch::QueryText(3).ValueOrDie();
  Table expected = compiler.CompileSql(sql, *catalog_, direct)
                       .ValueOrDie()
                       .Run(*catalog_)
                       .ValueOrDie();
  auto result = session.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectTablesIdentical(result.ValueOrDie(), expected, "pipelined via session");
}

// ---- Plan cache: eviction order + in-flight dedup ---------------------------

TEST(PlanCacheTest, EvictionFollowsRecencyOrderExactly) {
  runtime::PlanCache cache(3);
  auto plan = std::make_shared<const CompiledQuery>();
  cache.Insert("q1", plan);
  cache.Insert("q2", plan);
  cache.Insert("q3", plan);
  // Recency now (most..least): q3 q2 q1. Touch q1 and q2; q3 becomes LRU.
  EXPECT_NE(cache.Lookup("q1"), nullptr);
  EXPECT_NE(cache.Lookup("q2"), nullptr);
  cache.Insert("q4", plan);  // evicts q3
  EXPECT_EQ(cache.Lookup("q3"), nullptr);
  // Recency: q4 q2 q1. Re-inserting an existing key bumps, not grows.
  cache.Insert("q1", plan);
  EXPECT_EQ(cache.size(), 3u);
  cache.Insert("q5", plan);  // evicts q2 (now least recent)
  EXPECT_EQ(cache.Lookup("q2"), nullptr);
  EXPECT_NE(cache.Lookup("q1"), nullptr);
  EXPECT_NE(cache.Lookup("q4"), nullptr);
  EXPECT_NE(cache.Lookup("q5"), nullptr);
}

TEST_F(SessionTest, InFlightCompileDedupAcrossConcurrentSessions) {
  // Many sessions racing several distinct statements: each statement
  // compiles exactly once; every other execution either waits on the
  // in-flight compile or hits the cache.
  runtime::SchedulerOptions options;
  options.max_concurrent = 4;
  runtime::QueryScheduler scheduler(catalog_, options);
  const std::vector<std::string> statements = {
      "SELECT COUNT(*) AS n FROM region",
      "SELECT r_name, COUNT(*) AS n FROM region GROUP BY r_name ORDER BY r_name",
  };
  constexpr int kSessionsPerStatement = 8;
  std::vector<std::future<runtime::QueryOutcome>> futures;
  for (int i = 0; i < kSessionsPerStatement; ++i) {
    for (const std::string& sql : statements) {
      auto future_or = scheduler.Submit(sql);
      ASSERT_TRUE(future_or.ok()) << future_or.status().ToString();
      futures.push_back(std::move(future_or).ValueOrDie());
    }
  }
  int compiles = 0;
  for (auto& f : futures) {
    runtime::QueryOutcome outcome = f.get();
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    if (!outcome.stats.cache_hit) ++compiles;
  }
  EXPECT_EQ(compiles, static_cast<int>(statements.size()));
  EXPECT_EQ(scheduler.plan_cache().size(), statements.size());
  const auto counters = scheduler.counters();
  EXPECT_EQ(counters.admitted,
            static_cast<int64_t>(statements.size()) * kSessionsPerStatement);
  EXPECT_EQ(counters.completed, counters.admitted);
  EXPECT_EQ(counters.failed, 0);
}

// ---- Cross-query step interleaving (TSan-covered stress) --------------------

TEST_F(SessionTest, MixedPriorityPipelinedSessionsStress) {
  // Many concurrent sessions across all three priority classes running the
  // pipelined backend on one shared 4-thread pool: every query's step DAG is
  // admitted into the scheduler's StepScheduler (not run as one opaque
  // task), steps of different queries interleave, and every result must stay
  // bit-identical to eager. This is the TSan target for the DAG refactor.
  ThreadPool pool(4);
  runtime::SchedulerOptions options;
  options.pool = &pool;
  options.max_concurrent = 4;
  options.queue_capacity = 256;  // far from the watermark: nothing sheds
  options.compile.target = ExecutorTarget::kPipelined;
  options.compile.morsel_rows = 256;
  runtime::QueryScheduler scheduler(catalog_, options);

  QueryCompiler compiler;
  CompileOptions direct;
  direct.target = ExecutorTarget::kEager;
  const std::vector<std::string> sqls = {
      tpch::QueryText(1).ValueOrDie(),
      tpch::QueryText(6).ValueOrDie(),
      "SELECT r_name, COUNT(*) AS n FROM region GROUP BY r_name ORDER BY r_name",
  };
  std::vector<Table> expected;
  for (const std::string& sql : sqls) {
    expected.push_back(compiler.CompileSql(sql, *catalog_, direct)
                           .ValueOrDie()
                           .Run(*catalog_)
                           .ValueOrDie());
  }

  constexpr int kRounds = 4;
  const runtime::QueryPriority priorities[] = {runtime::QueryPriority::kLow,
                                               runtime::QueryPriority::kNormal,
                                               runtime::QueryPriority::kHigh};
  std::vector<std::pair<size_t, std::future<runtime::QueryOutcome>>> futures;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t si = 0; si < sqls.size(); ++si) {
      for (runtime::QueryPriority priority : priorities) {
        auto future_or = scheduler.Submit(sqls[si], priority);
        ASSERT_TRUE(future_or.ok()) << future_or.status().ToString();
        futures.emplace_back(si, std::move(future_or).ValueOrDie());
      }
    }
  }
  for (auto& [si, future] : futures) {
    runtime::QueryOutcome outcome = future.get();
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    ExpectTablesIdentical(outcome.table, expected[si],
                          "mixed-priority pipelined result");
  }
  const auto counters = scheduler.counters();
  EXPECT_EQ(counters.admitted,
            static_cast<int64_t>(futures.size()));
  EXPECT_EQ(counters.failed, 0);
  // The queries really flowed through the shared step dispatcher, tagged
  // with every priority class.
  const auto submitted = scheduler.step_scheduler()->submitted();
  EXPECT_GT(submitted[0], 0);
  EXPECT_GT(submitted[1], 0);
  EXPECT_GT(submitted[2], 0);
  // The executed counter bumps just after each step body returns (a query's
  // future can resolve a beat earlier); wait the last pumps out.
  const int64_t total = submitted[0] + submitted[1] + submitted[2];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scheduler.step_scheduler()->executed() < total &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(scheduler.step_scheduler()->executed(), total);
}

}  // namespace
}  // namespace tqp
