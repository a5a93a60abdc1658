// Tests for the observability layer: metrics registry (counter/gauge/
// histogram math, Prometheus exposition, JSON snapshot), the whole-lifecycle
// trace layer (span nesting and cross-thread parenting under the 8-thread
// pipelined backend, Chrome trace export), the step spans of a budgeted
// query never overlapping, EXPLAIN ANALYZE's step-sum-vs-wall accounting,
// the per-operator "op" spans every executor records and their one fold (the
// Figure-2 breakdown), and the differential that tracing on/off leaves TPC-H
// results bit-identical on every backend.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compile/compiler.h"
#include "compile/pipeline.h"
#include "graph/executor.h"
#include "graph/op_type.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/session.h"
#include "runtime/thread_pool.h"
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

// ---- histogram math ---------------------------------------------------------

TEST(HistogramTest, BucketsCountsAndSum) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);   // bucket 0 (<= 1)
  h.Observe(1.0);   // bucket 0 (inclusive upper bound)
  h.Observe(1.5);   // bucket 1
  h.Observe(4.0);   // bucket 2
  h.Observe(100.0); // overflow
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 107.0);
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(3), 1);  // overflow bucket
}

TEST(HistogramTest, PercentileInterpolatesInsideBucket) {
  obs::Histogram h({10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.Observe(5.0);   // bucket 0: [0, 10]
  for (int i = 0; i < 10; ++i) h.Observe(15.0);  // bucket 1: (10, 20]
  // Rank 10 of 20 sits exactly at the end of bucket 0.
  EXPECT_NEAR(h.Percentile(0.5), 10.0, 1e-9);
  // Rank 15 is halfway through bucket 1: 10 + 0.5 * (20 - 10).
  EXPECT_NEAR(h.Percentile(0.75), 15.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0.0);
}

TEST(HistogramTest, OverflowBucketReportsTopFiniteBound) {
  obs::Histogram h({1.0, 2.0});
  h.Observe(50.0);
  h.Observe(60.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 2.0);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  obs::Histogram h(obs::Histogram::LatencyBounds());
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0);
}

TEST(HistogramTest, ExponentialBoundsDouble) {
  const std::vector<double> bounds = obs::Histogram::ExponentialBounds(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

// ---- registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, NamedHandlesAreIdempotentAndTyped) {
  obs::MetricsRegistry registry;
  obs::Counter* c1 = registry.GetCounter("c", "a counter");
  obs::Counter* c2 = registry.GetCounter("c", "a counter");
  EXPECT_EQ(c1, c2);
  c1->Add(3);
  EXPECT_EQ(c2->value(), 3);
  // A name keeps its first registered type.
  EXPECT_EQ(registry.GetGauge("c", "not a gauge"), nullptr);
  EXPECT_EQ(registry.GetHistogram("c", "not a histogram", {1.0}), nullptr);
  EXPECT_EQ(registry.FindCounter("c"), c1);
  EXPECT_EQ(registry.FindCounter("absent"), nullptr);
}

TEST(MetricsRegistryTest, PrometheusTextGolden) {
  obs::MetricsRegistry registry;
  registry.GetCounter("tqp_test_queries_total", "Queries run")->Add(7);
  registry.GetGauge("tqp_test_live", "Live things")->Set(3);
  obs::Histogram* h =
      registry.GetHistogram("tqp_test_latency_seconds", "Latency", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(5.0);
  const std::string want =
      "# HELP tqp_test_queries_total Queries run\n"
      "# TYPE tqp_test_queries_total counter\n"
      "tqp_test_queries_total 7\n"
      "# HELP tqp_test_live Live things\n"
      "# TYPE tqp_test_live gauge\n"
      "tqp_test_live 3\n"
      "# HELP tqp_test_latency_seconds Latency\n"
      "# TYPE tqp_test_latency_seconds histogram\n"
      "tqp_test_latency_seconds_bucket{le=\"0.1\"} 1\n"
      "tqp_test_latency_seconds_bucket{le=\"1\"} 2\n"
      "tqp_test_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "tqp_test_latency_seconds_sum 5.55\n"
      "tqp_test_latency_seconds_count 3\n";
  EXPECT_EQ(registry.PrometheusText(), want);
}

TEST(MetricsRegistryTest, CallbackGaugeSamplesAtExposition) {
  obs::MetricsRegistry registry;
  int64_t value = 41;
  const uint64_t id = registry.RegisterCallbackGauge("tqp_test_cb", "Sampled",
                                                     [&value] { return value; });
  value = 42;
  EXPECT_NE(registry.PrometheusText().find("tqp_test_cb 42"), std::string::npos);
  registry.Unregister(id);
  EXPECT_EQ(registry.PrometheusText().find("tqp_test_cb"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonSnapshotContainsPercentiles) {
  obs::MetricsRegistry registry;
  registry.GetCounter("tqp_test_c", "c")->Add(1);
  obs::Histogram* h = registry.GetHistogram("tqp_test_h", "h", {1.0, 2.0});
  h->Observe(0.5);
  const std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"tqp_test_c\""), std::string::npos);
  EXPECT_NE(json.find("\"tqp_test_h\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalRegistryCarriesRuntimeSeams) {
  // Touch the instrumented singletons, then check their metrics exist.
  runtime::ThreadPool::Global();
  BufferPool::Global();
  const std::string text = obs::MetricsRegistry::Global()->PrometheusText();
  EXPECT_NE(text.find("tqp_threadpool_threads"), std::string::npos);
  EXPECT_NE(text.find("tqp_buffer_pool_live_bytes"), std::string::npos);
}

// ---- trace layer ------------------------------------------------------------

TEST(TraceTest, SpansNestOnOneThread) {
  obs::TraceSession session;
  {
    obs::TraceContext ctx(&session, session.NextQueryId());
    obs::TraceSpan outer("test", "outer");
    {
      obs::TraceSpan inner("test", "inner");
      obs::TraceInstant("test", "tick", "n", 7);
    }
  }
  const std::vector<obs::TraceEvent> events = session.events();
  ASSERT_EQ(events.size(), 3u);
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const obs::TraceEvent* tick = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "outer") outer = &e;
    if (std::string(e.name) == "inner") inner = &e;
    if (std::string(e.name) == "tick") tick = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_EQ(tick->parent_id, inner->span_id);
  EXPECT_EQ(outer->query_id, 1u);
  EXPECT_EQ(inner->query_id, 1u);
  // Containment: inner's interval sits inside outer's.
  EXPECT_GE(inner->ts_nanos, outer->ts_nanos);
  EXPECT_LE(inner->ts_nanos + inner->dur_nanos,
            outer->ts_nanos + outer->dur_nanos);
}

TEST(TraceTest, ReadsWaitForPoolTasksStillDetaching) {
  // A pool task signals its joiner from inside its body, so the joiner can
  // return while the worker still holds the task's trace context and its
  // buffered spans. Reading — and destroying — the session must wait for
  // that detach instead of missing the span or racing the worker's flush.
  runtime::ThreadPool pool(2);
  std::promise<void> joined;
  size_t num_events = 0;
  {
    obs::TraceSession session;
    {
      obs::TraceContext ctx(&session, session.NextQueryId());
      pool.Submit([&joined] {
        { obs::TraceSpan span("test", "late"); }
        joined.set_value();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      });
    }
    joined.get_future().wait();
    num_events = session.num_events();
  }
  EXPECT_EQ(num_events, 1u);
}

TEST(TraceTest, DisabledPathRecordsNothing) {
  obs::TraceSession session;
  {
    obs::TraceSpan span("test", "orphan");  // no ambient context
    obs::TraceInstant("test", "tick", "n", 1);
  }
  EXPECT_EQ(session.num_events(), 0u);
}

TEST(TraceTest, ChromeTraceExportShape) {
  obs::TraceSession session;
  {
    obs::TraceContext ctx(&session, session.NextQueryId());
    obs::TraceSpan span("test", "work");
    obs::TraceInstant("test", "mark", "v", 1);
  }
  const std::string json = session.ToChromeTrace("unit");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread names
  EXPECT_NE(json.find("unit"), std::string::npos);
}

// ---- per-operator spans -----------------------------------------------------

/// The "op" spans among `events`.
std::vector<obs::TraceEvent> OpSpans(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : events) {
    if (e.phase == obs::TraceEvent::Phase::kSpan &&
        std::string(e.category) == "op") {
      out.push_back(e);
    }
  }
  return out;
}

/// Program nodes the op spans stand for: one each, except a StaticExecutor
/// fused group, whose one span carries "fused[N ops]" in its detail.
int64_t NodesCovered(const std::vector<obs::TraceEvent>& op_spans) {
  int64_t nodes = 0;
  for (const obs::TraceEvent& e : op_spans) {
    const std::string prefix = "fused[";
    nodes += e.detail.rfind(prefix, 0) == 0
                 ? std::stoll(e.detail.substr(prefix.size()))
                 : 1;
  }
  return nodes;
}

int64_t NonInputNodes(const TensorProgram& program) {
  int64_t n = 0;
  for (const OpNode& node : program.nodes()) {
    if (node.type != OpType::kInput) ++n;
  }
  return n;
}

TEST(OpSpanTest, StaticFusedGroupRecordsOneSpan) {
  // mul(add(a, b), a): one fused group, blocked because the rows exceed
  // twice the block size.
  auto program = std::make_shared<TensorProgram>();
  const int a = program->AddInput("a");
  const int b = program->AddInput("b");
  AttrMap add;
  add.Set("op", static_cast<int64_t>(BinaryOpKind::kAdd));
  AttrMap mul;
  mul.Set("op", static_cast<int64_t>(BinaryOpKind::kMul));
  const int sum = program->AddNode(OpType::kBinary, {a, b}, add);
  const int prod = program->AddNode(OpType::kBinary, {sum, a}, mul);
  program->MarkOutput(prod);
  std::vector<double> values(256);
  for (size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i);
  const Tensor at = Tensor::FromVector(values);
  const Tensor bt = Tensor::FromVector(values);

  ExecOptions options;
  options.fusion_block_rows = 64;
  auto executor =
      MakeExecutor(ExecutorTarget::kStatic, program, options).ValueOrDie();
  obs::TraceSession session;
  {
    obs::TraceContext ctx(&session, session.NextQueryId());
    ASSERT_TRUE(executor->Run({at, bt}).ok());
  }
  const std::vector<obs::TraceEvent> spans = OpSpans(session.events());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, OpTypeName(OpType::kBinary));
  EXPECT_EQ(spans[0].detail.rfind("fused[2 ops]", 0), 0u) << spans[0].detail;
  EXPECT_EQ(NodesCovered(spans), 2);
}

// ---- end-to-end over TPC-H --------------------------------------------------

class ObsTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::DbgenOptions options;
    options.scale_factor = 0.01;
    TQP_CHECK_OK(tpch::GenerateAll(options, catalog_));
  }
  static Catalog* catalog_;
};

Catalog* ObsTpchTest::catalog_ = nullptr;

TEST_F(ObsTpchTest, PipelinedQ1SpansNestAcrossEightThreads) {
  runtime::ThreadPool pool(8);
  obs::TraceSession session;
  runtime::SchedulerOptions options;
  options.pool = &pool;
  options.trace = &session;
  options.compile.target = ExecutorTarget::kPipelined;
  // SF 0.01 Q1 scans ~60k rows: 1,000-row morsels give it many morsels, so
  // the fan-out below can reach several workers. Which workers run it is up
  // to the scheduler; that a task sees its query's context on any worker is
  // QueryContextTest's check (test_runtime.cc).
  options.compile.morsel_rows = 1000;
  runtime::QueryScheduler scheduler(catalog_, options);
  const std::string sql = tpch::QueryText(1).ValueOrDie();
  auto future_or = scheduler.Submit(sql);
  ASSERT_TRUE(future_or.ok()) << future_or.status().ToString();
  runtime::QueryOutcome outcome = future_or.ValueOrDie().get();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();

  const std::vector<obs::TraceEvent> events = session.events();
  std::map<uint64_t, const obs::TraceEvent*> by_span;
  const obs::TraceEvent* root = nullptr;
  const obs::TraceEvent* execute = nullptr;
  bool saw_admit = false;
  bool saw_queue_wait = false;
  bool saw_compile = false;
  int step_spans = 0;
  int morsel_spans = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.span_id != 0) by_span[e.span_id] = &e;
    const std::string name = e.name;
    if (name == "query" && e.phase == obs::TraceEvent::Phase::kSpan) root = &e;
    if (name == "execute") execute = &e;
    if (name == "admit") saw_admit = true;
    if (name == "queue.wait") saw_queue_wait = true;
    if (name == "compile") saw_compile = true;
    if (std::string(e.category) == "step") ++step_spans;
    if (std::string(e.category) == "morsel") ++morsel_spans;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(execute, nullptr);
  EXPECT_TRUE(saw_admit);
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_compile);
  EXPECT_GT(step_spans, 0);
  EXPECT_GT(morsel_spans, 0);
  EXPECT_EQ(execute->parent_id, root->span_id);

  // Every span of this query is contained in the root query span's interval
  // and correctly parented: walking parent links reaches the root, and each
  // child's interval sits inside its parent's (spans may have recorded on
  // any of the 8 workers — containment must hold across threads).
  const uint64_t qid = root->query_id;
  EXPECT_GT(qid, 0u);
  int checked = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.phase != obs::TraceEvent::Phase::kSpan) continue;
    if (e.query_id != qid || &e == root) continue;
    if (std::string(e.name) == "queue.wait") continue;  // pre-pickup, backdated
    EXPECT_GE(e.ts_nanos, root->ts_nanos) << e.name;
    EXPECT_LE(e.ts_nanos + e.dur_nanos, root->ts_nanos + root->dur_nanos)
        << e.name;
    // Parent chain terminates at the root query span.
    const obs::TraceEvent* cur = &e;
    int hops = 0;
    while (cur->parent_id != 0 && hops < 64) {
      auto it = by_span.find(cur->parent_id);
      ASSERT_NE(it, by_span.end()) << e.name << ": dangling parent";
      EXPECT_GE(cur->ts_nanos, it->second->ts_nanos) << e.name;
      EXPECT_LE(cur->ts_nanos + cur->dur_nanos,
                it->second->ts_nanos + it->second->dur_nanos)
          << e.name << " inside " << it->second->name;
      cur = it->second;
      ++hops;
    }
    EXPECT_EQ(cur, root) << e.name << ": parent chain missed the root";
    ++checked;
  }
  EXPECT_GT(checked, 0);

  // The execute span covers at least 95% of the measured exec wall.
  EXPECT_GE(static_cast<double>(execute->dur_nanos),
            0.95 * static_cast<double>(outcome.stats.exec_nanos));
}

TEST_F(ObsTpchTest, TracingOnOffBitIdentical) {
  QueryCompiler compiler;
  for (const ExecutorTarget target :
       {ExecutorTarget::kEager, ExecutorTarget::kStatic,
        ExecutorTarget::kInterp, ExecutorTarget::kPipelined}) {
    for (const int q : {1, 3, 6, 10}) {
      const std::string what = std::string(ExecutorTargetName(target)) +
                               " traced Q" + std::to_string(q);
      const std::string sql = tpch::QueryText(q).ValueOrDie();
      CompileOptions options;
      options.target = target;
      auto compiled_or = compiler.CompileSql(sql, *catalog_, options);
      ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
      const CompiledQuery& query = compiled_or.ValueOrDie();
      auto want_or = query.Run(*catalog_);
      ASSERT_TRUE(want_or.ok()) << want_or.status().ToString();
      obs::TraceSession session;
      Result<Table> got_or = Status::Internal("unset");
      {
        obs::TraceContext ctx(&session, session.NextQueryId());
        obs::TraceSpan root("query", "query");
        got_or = query.Run(*catalog_);
      }
      ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
      ExpectTablesIdentical(got_or.ValueOrDie(), want_or.ValueOrDie(), what);
      const std::vector<obs::TraceEvent> spans = OpSpans(session.events());
      EXPECT_GT(spans.size(), 0u) << what;
      // Node-at-a-time backends record one span per executed node; the
      // pipelined backend only for nodes it runs whole (breakers, scalars).
      const int64_t nodes = NonInputNodes(query.program());
      if (target == ExecutorTarget::kPipelined) {
        EXPECT_LE(NodesCovered(spans), nodes) << what;
      } else {
        EXPECT_EQ(NodesCovered(spans), nodes) << what;
      }
    }
  }
}

TEST_F(ObsTpchTest, EagerOpSpansFoldIntoBreakdown) {
  CompileOptions options;
  options.target = ExecutorTarget::kEager;
  QueryCompiler compiler;
  CompiledQuery query =
      compiler.CompileSql(tpch::QueryText(6).ValueOrDie(), *catalog_, options)
          .ValueOrDie();
  obs::TraceSession session;
  {
    obs::TraceContext ctx(&session, session.NextQueryId());
    ASSERT_TRUE(query.Run(*catalog_).ok());
  }
  const std::vector<obs::TraceEvent> events = session.events();
  const std::vector<obs::TraceEvent> spans = OpSpans(events);
  const size_t num_spans = spans.size();
  ASSERT_GT(num_spans, 0u);
  // Each span names its node (first arg) and carries the node's label.
  for (const obs::TraceEvent& e : spans) {
    ASSERT_GE(e.num_args, 2);
    EXPECT_STREQ(e.arg_names[0], "node");
    EXPECT_STREQ(e.arg_names[1], "output_bytes");
    const OpNode& node =
        query.program().node(static_cast<int>(e.arg_values[0]));
    EXPECT_STREQ(e.name, OpTypeName(node.type));
    EXPECT_EQ(e.detail, node.label);
  }
  const std::vector<obs::OpBreakdownRow> rows = obs::FoldOpSpans(events);
  ASSERT_FALSE(rows.empty());
  int64_t calls = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    calls += rows[i].calls;
    if (i > 0) {
      EXPECT_GE(rows[i - 1].nanos, rows[i].nanos);
    }
  }
  EXPECT_EQ(calls, static_cast<int64_t>(num_spans));
  const std::string report = obs::RenderOpBreakdown(rows);
  const std::string header =
      "operator              calls   total(ms)   share   out(MB)\n";
  EXPECT_EQ(report.rfind(header, 0), 0u) << report;
  EXPECT_NE(report.find(rows[0].op), std::string::npos) << report;
  EXPECT_NE(session.ToChromeTrace().find("\"ph\":\"X\""), std::string::npos);
}

/// The MiB figure after `key` ("peak=" / "spilled=") in an EXPLAIN ANALYZE
/// header, or -1 when the header has none.
double HeaderMiB(const std::string& text, const std::string& key) {
  const std::string header = text.substr(0, text.find('\n'));
  const size_t at = header.find("  " + key);
  if (at == std::string::npos) return -1;
  const size_t value = at + 2 + key.size();
  const size_t unit = header.find(" MiB", value);
  if (unit == std::string::npos) return -1;
  return std::stod(header.substr(value, unit - value));
}

TEST_F(ObsTpchTest, ExplainAnalyzeStepSumTracksWall) {
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.num_threads = 1;  // serial schedule walk: spans tile the wall
  // Run under an ambient accounting scope: the header's peak is that
  // scope's, and an unbudgeted run spills nothing.
  BufferPool::QueryScope scope;
  auto result_or = [&] {
    BufferPool::QueryScope::Attach attach(&scope);
    return obs::ExplainAnalyze(tpch::QueryText(1).ValueOrDie(), *catalog_,
                               options);
  }();
  ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
  const obs::ExplainAnalyzeResult& result = result_or.ValueOrDie();
  EXPECT_GT(result.wall_nanos, 0);
  EXPECT_GT(result.result_rows, 0);
  EXPECT_NE(result.text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(result.text.find("pipeline"), std::string::npos);
  const double ratio = static_cast<double>(result.step_nanos) /
                       static_cast<double>(result.wall_nanos);
  EXPECT_GT(ratio, 0.6) << result.text;
  EXPECT_LT(ratio, 1.15) << result.text;

  const double peak_mib =
      static_cast<double>(scope.stats().peak_live_bytes) / (1024.0 * 1024.0);
  ASSERT_GT(peak_mib, 0.1);
  EXPECT_NEAR(HeaderMiB(result.text, "peak="), peak_mib, 0.006) << result.text;
  EXPECT_EQ(HeaderMiB(result.text, "spilled="), 0.0) << result.text;

  // With no scope ambient, EXPLAIN ANALYZE attaches one with the options'
  // budget: under a quarter of the peak, the run spills and says so.
  options.memory_budget_bytes = scope.stats().peak_live_bytes / 4;
  auto budgeted_or =
      obs::ExplainAnalyze(tpch::QueryText(1).ValueOrDie(), *catalog_, options);
  ASSERT_TRUE(budgeted_or.ok()) << budgeted_or.status().ToString();
  const std::string& budgeted = budgeted_or.ValueOrDie().text;
  EXPECT_GT(HeaderMiB(budgeted, "peak="), 0.0) << budgeted;
  EXPECT_LT(HeaderMiB(budgeted, "peak="), peak_mib) << budgeted;
  EXPECT_GT(HeaderMiB(budgeted, "spilled="), 0.0) << budgeted;
}

TEST_F(ObsTpchTest, BudgetedPipelinedQ18RunsOneStepAtATime) {
  // Under a memory budget the pipelined executor gates each schedule step on
  // the one before it, so even at 4 threads no two "step" spans are in
  // flight at once, and the result is bit-identical to the unbudgeted run.
  // Q18's step DAG has several root steps, so the unbudgeted schedule could
  // overlap them.
  QueryCompiler compiler;
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.num_threads = 4;
  CompiledQuery compiled =
      compiler.CompileSql(tpch::QueryText(18).ValueOrDie(), *catalog_, options)
          .ValueOrDie();
  const PipelinePlan plan = BuildPipelinePlan(compiled.program());
  ASSERT_GE(plan.num_root_steps(), 2);

  int64_t unbudgeted_peak = 0;
  Table reference;
  {
    BufferPool::QueryScope scope;  // accounting only
    BufferPool::QueryScope::Attach attach(&scope);
    reference = compiled.Run(*catalog_).ValueOrDie();
    unbudgeted_peak = scope.stats().peak_live_bytes;
  }
  ASSERT_GT(unbudgeted_peak, 0);

  obs::TraceSession session;
  Table budgeted;
  {
    BufferPool::QueryScope scope(unbudgeted_peak / 4);
    BufferPool::QueryScope::Attach attach(&scope);
    obs::TraceContext ctx(&session, session.NextQueryId());
    budgeted = compiled.Run(*catalog_).ValueOrDie();
  }
  ExpectTablesIdentical(budgeted, reference, "budgeted Q18");

  std::vector<std::pair<int64_t, int64_t>> steps;  // (begin, end)
  for (const obs::TraceEvent& e : session.events()) {
    if (e.phase == obs::TraceEvent::Phase::kSpan &&
        std::string(e.category) == "step") {
      steps.emplace_back(e.ts_nanos, e.ts_nanos + e.dur_nanos);
    }
  }
  ASSERT_EQ(steps.size(), plan.schedule.size());
  std::sort(steps.begin(), steps.end());
  for (size_t i = 1; i < steps.size(); ++i) {
    EXPECT_GE(steps[i].first, steps[i - 1].second)
        << "step span " << i << " began before the one before it ended";
  }
}

TEST_F(ObsTpchTest, ExplainAnalyzeReportsGroupIdsPath) {
  // Q1 groups by two 1-byte flags (a few packed codes): dense. Q3 groups by
  // an order key, a date and a priority, and the key product is far past
  // 2n codes: sort.
  for (const auto& [q, path] :
       std::vector<std::pair<int, std::string>>{{1, "[dense "}, {3, "[sort]"}}) {
    CompileOptions options;
    options.target = ExecutorTarget::kPipelined;
    options.num_threads = 2;
    auto result_or =
        obs::ExplainAnalyze(tpch::QueryText(q).ValueOrDie(), *catalog_, options);
    ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
    const std::string& text = result_or.ValueOrDie().text;
    const size_t row = text.find(OpTypeName(OpType::kGroupIds));
    ASSERT_NE(row, std::string::npos) << text;
    const std::string line = text.substr(row, text.find('\n', row) - row);
    EXPECT_NE(line.find(path), std::string::npos) << "Q" << q << "\n" << text;
  }
}

TEST_F(ObsTpchTest, ExplainAnalyzeMarksOrderedArgsorts) {
  // Q21's EXISTS / NOT EXISTS build sides sort lineitem on l_orderkey, the
  // order dbgen writes it in: those argsorts return the identity. Its
  // supplier join sorts lineitem on l_suppkey, which is not in order.
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.num_threads = 2;
  auto result_or =
      obs::ExplainAnalyze(tpch::QueryText(21).ValueOrDie(), *catalog_, options);
  ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
  const std::string& text = result_or.ValueOrDie().text;
  int ordered = 0;
  int sorted = 0;
  for (size_t row = text.find(OpTypeName(OpType::kArgsortRows));
       row != std::string::npos;
       row = text.find(OpTypeName(OpType::kArgsortRows), row + 1)) {
    const std::string line = text.substr(row, text.find('\n', row) - row);
    ++(line.find("[ordered]") != std::string::npos ? ordered : sorted);
  }
  EXPECT_GE(ordered, 2) << text;
  EXPECT_GE(sorted, 1) << text;
}

TEST_F(ObsTpchTest, ExplainAnalyzeListsOperatorsOnSerialBackends) {
  for (const ExecutorTarget target :
       {ExecutorTarget::kStatic, ExecutorTarget::kInterp}) {
    CompileOptions options;
    options.target = target;
    auto result_or = obs::ExplainAnalyze(tpch::QueryText(6).ValueOrDie(),
                                         *catalog_, options);
    ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
    const obs::ExplainAnalyzeResult& result = result_or.ValueOrDie();
    // Operator rows sit between the dashed rule and the "span sum" footer.
    const std::string& text = result.text;
    const size_t rule = text.find(std::string(78, '-'));
    const size_t footer = text.find("span sum");
    ASSERT_NE(rule, std::string::npos) << text;
    ASSERT_NE(footer, std::string::npos) << text;
    const std::string body = text.substr(rule + 79, footer - rule - 79);
    EXPECT_FALSE(body.empty()) << ExecutorTargetName(target) << "\n" << text;
    EXPECT_NE(body.find(OpTypeName(OpType::kReduceAll)), std::string::npos)
        << text;
    EXPECT_GT(result.step_nanos, 0) << text;
  }
}

TEST_F(ObsTpchTest, SchedulerPublishesQueryMetrics) {
  auto* registry = obs::MetricsRegistry::Global();
  obs::Counter* admitted =
      registry->GetCounter("tqp_queries_admitted_total", "");
  obs::Counter* completed =
      registry->GetCounter("tqp_queries_completed_total", "");
  obs::Histogram* latency = registry->GetHistogram(
      "tqp_query_latency_seconds", "", obs::Histogram::LatencyBounds());
  ASSERT_NE(admitted, nullptr);
  ASSERT_NE(completed, nullptr);
  ASSERT_NE(latency, nullptr);
  const int64_t admitted_before = admitted->value();
  const int64_t completed_before = completed->value();
  const int64_t latency_before = latency->count();

  runtime::SchedulerOptions options;
  runtime::QueryScheduler scheduler(catalog_, options);
  const std::string sql = tpch::QueryText(6).ValueOrDie();
  for (int i = 0; i < 3; ++i) {
    auto future_or = scheduler.Submit(sql);
    ASSERT_TRUE(future_or.ok());
    runtime::QueryOutcome outcome = future_or.ValueOrDie().get();
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
  EXPECT_EQ(admitted->value() - admitted_before, 3);
  EXPECT_EQ(completed->value() - completed_before, 3);
  EXPECT_EQ(latency->count() - latency_before, 3);
  EXPECT_GT(latency->Percentile(0.5), 0.0);
}

}  // namespace
}  // namespace tqp
