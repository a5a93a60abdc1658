// TPC-H serving-path benchmark (tqp_perfbench).
//
// Runs TPC-H queries through the public serving API — runtime::QueryScheduler
// and QuerySession with SchedulerOptions{} defaults — as closed-loop clients,
// checks every result against the Volcano engine, and prints one JSON result
// line (the last line of stdout). perfbench/run.py builds and launches it.
//
//   tqp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--smoke] [--report PATH] [--chrome-trace PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate per-layer run: an untraced phase for the program's own
// counters, a traced phase (SchedulerOptions::trace) whose spans are folded
// into per-layer self time, and direct timings of each layer's public entry
// point called from here (parse, bind, optimize, physical, lower, collect
// inputs, run). --smoke runs every workload at SF 0.001 for one stream.
//
// The program under test is never configured through TQP_* variables: the
// benchmark refuses to run when one that changes execution is set, or when the
// build is not optimised.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/volcano.h"
#include "common/stopwatch.h"
#include "compile/compiler.h"
#include "graph/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "operators/partitioned/partition.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "plan/physical_planner.h"
#include "runtime/morsel.h"
#include "runtime/session.h"
#include "sql/parser.h"
#include "tensor/buffer_pool.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace {

using tqp::Catalog;
using tqp::Stopwatch;
using tqp::Table;
using tqp::runtime::QueryOutcome;
using tqp::runtime::QueryScheduler;
using tqp::runtime::QuerySession;
using tqp::runtime::SchedulerOptions;

constexpr double kMiB = 1024.0 * 1024.0;

// ------------------------------------------------------------ workloads --

struct Workload {
  const char* name;
  double scale_factor;
  int clients;
  bool plan_cache;       // false: plan_cache_capacity = 0 (every query compiles)
  int64_t budget_bytes;  // per-query memory budget; 0 leaves the default
  std::vector<int> queries;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"power_sf0.1", 0.1, 1, true, 0, tqp::tpch::SupportedQueries()},
      {"adhoc_sf0.001", 0.001, 1, false, 0, tqp::tpch::SupportedQueries()},
      {"throughput_sf0.1_c4", 0.1, 4, true, 0, tqp::tpch::SupportedQueries()},
      {"budget_sf0.1_24mib", 0.1, 1, true, int64_t{24} << 20,
       {1, 9, 13, 18, 19, 21}},
  };
  return kWorkloads;
}

// Smoke runs shrink every workload to this scale; a budget shrinks with it.
constexpr double kSmokeScaleFactor = 0.001;

// ------------------------------------------------------------- helpers --

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "tqp_perfbench: %s\n", message.c_str());
  std::exit(2);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A JSON number with every digit a double carries.
std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

/// Minimal JSON object writer, keys in insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, JsonNumber(value));
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += Quote(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

std::vector<std::string> ToJson(const std::vector<double>& values) {
  std::vector<std::string> out;
  for (double v : values) out.push_back(JsonNumber(v));
  return out;
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) out += (i ? ", " : "") + items[i];
  return out + "]";
}

// -------------------------------------------------------- configuration --

const char* const kRefusedEnv[] = {
    "TQP_THREADS",          "TQP_MORSEL_ROWS",          "TQP_EXPR_BACKEND",
    "TQP_ADAPTIVE_MORSEL",  "TQP_PARTITIONED_BREAKERS", "TQP_PARTITION_BITS",
    "TQP_MEMORY_BUDGET_MB", "TQP_BUFFER_POOL_MB",       "TQP_QUERY_TIMEOUT_MS",
    "TQP_FAULT_SPEC",
};

void GuardConfiguration() {
#ifndef __OPTIMIZE__
  Fail("refusing to run an unoptimised build (configure with "
       "-DCMAKE_BUILD_TYPE=RelWithDebInfo or Release)");
#endif
  for (const char* name : kRefusedEnv) {
    const char* value = std::getenv(name);
    if (value != nullptr && value[0] != '\0') {
      Fail(std::string("refusing to run with ") + name + "=" + value +
           " set: the benchmark measures the program's defaults");
    }
  }
}

bool HostHasAvx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

std::string ConfigJson() {
  const SchedulerOptions defaults;
  JsonObject host;
  host.Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .Bool("avx2", HostHasAvx2())
      .Str("compiler", __VERSION__)
#ifdef __OPTIMIZE__
      .Bool("optimized", true);
#else
      .Bool("optimized", false);
#endif
  JsonObject resolved;
  resolved.Str("executor_target", tqp::ExecutorTargetName(defaults.compile.target))
      .Str("expr_backend",
           tqp::ExprBackendName(tqp::ResolveExprBackend(tqp::ExprBackend::kDefault)))
      .Bool("expr_fusion", defaults.compile.expr_fusion)
      .Bool("partitioned_breakers", defaults.compile.partitioned_breakers ||
                                        tqp::op::partitioned::DefaultPartitionedBreakers())
      .Bool("adaptive_morsels",
            defaults.compile.adaptive_morsels || tqp::runtime::DefaultAdaptiveMorsels())
      .Int("morsel_rows", tqp::runtime::DefaultMorselRows())
      .Int("plan_cache_capacity", static_cast<int64_t>(defaults.plan_cache_capacity))
      .Int("max_concurrent", defaults.max_concurrent)
      .Int("pool_threads", tqp::runtime::ThreadPool::Global()->num_threads());
  return JsonObject().Raw("host", host.str()).Raw("defaults", resolved.str()).str();
}

// --------------------------------------------------------------- set-up --

struct Server {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<QueryScheduler> scheduler;  // declared after: destroyed first
};

SchedulerOptions OptionsFor(const Workload& w, tqp::obs::TraceSession* trace) {
  SchedulerOptions options;
  if (!w.plan_cache) options.plan_cache_capacity = 0;
  if (w.budget_bytes > 0) options.compile.memory_budget_bytes = w.budget_bytes;
  options.trace = trace;
  return options;
}

/// Runs each distinct query once through `scheduler` (compiles it into the
/// plan cache and warms the buffer pool), failing the run on any error.
void WarmUp(QueryScheduler* scheduler, const std::vector<std::string>& sqls) {
  QuerySession session(scheduler, "warmup");
  for (const std::string& sql : sqls) {
    auto future_or = session.ExecuteAsync(sql);
    if (!future_or.ok()) Fail("warm-up rejected: " + future_or.status().ToString());
    const QueryOutcome outcome = future_or.ValueOrDie().get();
    if (!outcome.status.ok()) Fail("warm-up failed: " + outcome.status.ToString());
  }
}

/// What one set-up cost: dbgen into a catalog, scheduler construction, and
/// warm-up compiles, up to the first timed query.
struct SetUpCost {
  double cpu_s = 0;    // process CPU time (user + sys), every thread
  double wall_s = 0;
  double dbgen_s = 0;  // wall time of dbgen alone
};

SetUpCost SetUp(const Workload& w, uint64_t seed, const std::vector<std::string>& sqls,
                Server* server) {
  server->scheduler.reset();
  server->catalog.reset();
  SetUpCost cost;
  const double cpu_before = CpuSeconds();
  Stopwatch total;
  server->catalog = std::make_unique<Catalog>();
  tqp::tpch::DbgenOptions gen;
  gen.scale_factor = w.scale_factor;
  gen.seed = seed;
  Stopwatch dbgen;
  const tqp::Status st = tqp::tpch::GenerateAll(gen, server->catalog.get());
  if (!st.ok()) Fail("dbgen failed: " + st.ToString());
  cost.dbgen_s = dbgen.ElapsedSeconds();
  server->scheduler =
      std::make_unique<QueryScheduler>(server->catalog.get(), OptionsFor(w, nullptr));
  WarmUp(server->scheduler.get(), sqls);
  cost.wall_s = total.ElapsedSeconds();
  cost.cpu_s = CpuSeconds() - cpu_before;
  return cost;
}

// --------------------------------------------------------------- oracle --

/// Expected results from the Volcano engine (independent of tensor
/// lowering), computed on a few threads outside every timed phase.
std::vector<Table> ComputeOracle(const Catalog& catalog,
                                 const std::vector<std::string>& sqls) {
  std::vector<Table> expected(sqls.size());
  std::vector<std::string> errors(sqls.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    const tqp::VolcanoEngine volcano(&catalog);
    for (size_t i = next++; i < sqls.size(); i = next++) {
      auto table_or = volcano.ExecuteSql(sqls[i]);
      if (table_or.ok()) {
        expected[i] = std::move(table_or).ValueOrDie();
      } else {
        errors[i] = table_or.status().ToString();
      }
    }
  };
  const unsigned n = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < sqls.size(); ++i) {
    if (!errors[i].empty()) Fail("oracle failed: " + errors[i]);
  }
  return expected;
}

/// FNV-1a over the rendered oracle results: a different seed must change it.
uint64_t Fingerprint(const std::vector<Table>& tables) {
  uint64_t h = 1469598103934665603ull;
  for (const Table& t : tables) {
    for (char c : t.ToString(1 << 20)) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  return h;
}

// ------------------------------------------------------- closed loops --

struct Sample {
  int query = 0;  // index into the workload's query list
  double latency_ms = 0;
  tqp::runtime::QueryStats stats;
};

/// Cumulative counters the program exports, by name: the registry's
/// counters plus the pools' own. Read before and after a phase.
using Counters = std::map<std::string, int64_t>;

const char* const kRegistryCounters[] = {
    "tqp_morsel_evals_total",          "tqp_breaker_invocations_total",
    "tqp_breaker_partitions_total",    "tqp_breaker_spilled_bytes_total",
    "tqp_expr_backend_simd_total",     "tqp_expr_backend_interp_total",
    "tqp_spill_events_total",
};

Counters ReadCounters(const QueryScheduler& scheduler) {
  Counters c;
  for (const char* name : kRegistryCounters) {
    const tqp::obs::Counter* counter =
        tqp::obs::MetricsRegistry::Global()->FindCounter(name);
    c[name] = counter != nullptr ? counter->value() : 0;  // 0 until first use
  }
  c["pool_tasks"] = scheduler.pool()->tasks_executed();
  c["pool_steals"] = scheduler.pool()->steals();
  c["steps"] = scheduler.step_scheduler().executed();
  const tqp::BufferPoolStats bp = tqp::BufferPool::Global()->stats();
  c["buffer_allocations"] = bp.allocations;
  c["buffer_hits"] = bp.pool_hits;
  c["buffer_bypass"] = bp.bypass;
  return c;
}

Counters Delta(Counters after, const Counters& before) {
  for (auto& [name, value] : after) value -= before.at(name);
  return after;
}

struct Phase {
  std::vector<Sample> samples;  // completed queries with an OK status
  int64_t attempted = 0;
  int64_t rejected = 0;
  int64_t errors = 0;
  int64_t mismatches = 0;
  double wall_s = 0;
  double cpu_s = 0;
  Counters counters;  // delta over the phase
  std::vector<std::string> failures;  // first few, for the diagnostics
  std::vector<double> pass_s;         // client 0's completed passes (stream times)
};

/// Client `c`'s query order for one pass: power and budget streams run in
/// the listed order; each throughput client draws a fresh seeded permutation
/// every pass, so a run averages over many mixes of concurrent queries.
std::vector<int> PassOrder(const Workload& w, std::mt19937_64* rng) {
  std::vector<int> order(w.queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  if (w.clients > 1) std::shuffle(order.begin(), order.end(), *rng);
  return order;
}

/// When a closed loop stops submitting: after `seconds` or after `passes`
/// full passes per client, whichever comes first (0 = no limit).
struct Limit {
  double seconds = 0;
  int passes = 0;
};

/// Closed loop: every client submits its next query only after the previous
/// one completes, until `limit`. Results are compared with the oracle after
/// the phase clock stops.
Phase RunClosedLoop(QueryScheduler* scheduler, const Workload& w, uint64_t seed,
                    const std::vector<std::string>& sqls,
                    const std::vector<Table>& expected, Limit limit) {
  struct ClientLog {
    std::vector<Sample> samples;
    std::vector<Table> results;
    int64_t attempted = 0, rejected = 0, errors = 0;
    std::vector<std::string> failures;
    std::vector<double> pass_s;
  };
  std::vector<ClientLog> logs(static_cast<size_t>(w.clients));
  const Counters before = ReadCounters(*scheduler);
  const double cpu_before = CpuSeconds();
  Stopwatch wall;
  auto client = [&](int c) {
    ClientLog& log = logs[static_cast<size_t>(c)];
    QuerySession session(scheduler, "client" + std::to_string(c));
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(c) + 1);
    for (int pass = 0; limit.passes <= 0 || pass < limit.passes; ++pass) {
      Stopwatch pass_time;
      for (int q : PassOrder(w, &rng)) {
        if (limit.seconds > 0 && wall.ElapsedSeconds() >= limit.seconds) return;
        ++log.attempted;
        Stopwatch latency;
        auto future_or = session.ExecuteAsync(sqls[static_cast<size_t>(q)]);
        if (!future_or.ok()) {
          ++log.rejected;
          log.failures.push_back("rejected: " + future_or.status().ToString());
          continue;
        }
        QueryOutcome outcome = future_or.ValueOrDie().get();
        const double ms = latency.ElapsedMillis();
        if (!outcome.status.ok()) {
          ++log.errors;
          log.failures.push_back("error: " + outcome.status.ToString());
          continue;
        }
        log.samples.push_back({q, ms, outcome.stats});
        log.results.push_back(std::move(outcome.table));
      }
      log.pass_s.push_back(pass_time.ElapsedSeconds());
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  Phase phase;
  phase.wall_s = wall.ElapsedSeconds();
  phase.cpu_s = CpuSeconds() - cpu_before;
  phase.counters = Delta(ReadCounters(*scheduler), before);
  phase.pass_s = logs.front().pass_s;
  for (ClientLog& log : logs) {
    phase.attempted += log.attempted;
    phase.rejected += log.rejected;
    phase.errors += log.errors;
    for (size_t i = 0; i < log.samples.size(); ++i) {
      const Sample& s = log.samples[i];
      const tqp::Status same = tqp::TablesEqualUnordered(
          log.results[i], expected[static_cast<size_t>(s.query)]);
      if (!same.ok()) {
        ++phase.mismatches;
        log.failures.push_back("Q" + std::to_string(w.queries[static_cast<size_t>(s.query)]) +
                               " differs from the oracle: " + same.ToString());
        continue;
      }
      phase.samples.push_back(s);
    }
    for (std::string& f : log.failures) {
      if (phase.failures.size() < 5) phase.failures.push_back(std::move(f));
    }
  }
  return phase;
}

int64_t Failed(const Phase& p) { return p.rejected + p.errors + p.mismatches; }

// ------------------------------------------------------------ metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics) {
    obj.Raw(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }
  return obj.str();
}

std::vector<double> Field(const Phase& p, const std::function<double(const Sample&)>& f) {
  std::vector<double> out;
  out.reserve(p.samples.size());
  for (const Sample& s : p.samples) out.push_back(f(s));
  return out;
}

double NanosToMs(int64_t nanos) { return static_cast<double>(nanos) * 1e-6; }

/// Geometric mean over the distinct queries of each query's median `f`.
double GeomeanOfMedians(const Phase& p, size_t num_queries,
                        const std::function<double(const Sample&)>& f) {
  std::vector<std::vector<double>> per_query(num_queries);
  for (const Sample& s : p.samples) per_query[static_cast<size_t>(s.query)].push_back(f(s));
  double log_sum = 0;
  int n = 0;
  for (const auto& values : per_query) {
    if (values.empty()) continue;
    log_sum += std::log(std::max(Median(values), 1e-12));
    ++n;
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

// The gated end-to-end metrics are the ones contention from other tenants
// of a shared host barely moves: process CPU time per query and of set-up
// (time a vCPU is stolen is not charged to the process), and per-query peak
// memory. Wall-clock latency, throughput and set-up time swing by up to 2x
// between runs on such a host, so they are reported ungated
// (LatencyMetrics, the report's setup_wall_s).
//
// peak_mem_mib is a geometric mean over queries, not the largest query's
// peak: BufferPool size classes round a query's peak, so the largest one
// (Q9) jumps between 128 and 195 MiB from one dbgen seed to the next, while
// the geometric mean moves a few percent.
std::vector<Metric> EndToEndMetrics(const Phase& p, size_t num_queries, double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"cpu_ms_per_query", Ratio(p.cpu_s * 1e3, static_cast<double>(p.samples.size())), "ms"},
      {"peak_mem_mib",
       GeomeanOfMedians(p, num_queries,
                        [](const Sample& s) {
                          return static_cast<double>(s.stats.peak_memory_bytes) / kMiB;
                        }),
       "MiB"},
  };
}

/// Latency from submit to result over all samples, the geometric mean of
/// the per-query median latencies, and completed queries per wall second.
std::vector<Metric> LatencyMetrics(const Phase& p, size_t num_queries,
                                   const std::string& prefix) {
  const std::vector<double> latency = Field(p, [](const Sample& s) { return s.latency_ms; });
  return {
      {prefix + "query_p50_ms", Percentile(latency, 0.5), "ms"},
      {prefix + "query_p90_ms", Percentile(latency, 0.9), "ms"},
      {prefix + "geomean_ms",
       GeomeanOfMedians(p, num_queries, [](const Sample& s) { return s.latency_ms; }), "ms"},
      {prefix + "qps", Ratio(static_cast<double>(p.samples.size()), p.wall_s), "1/s"},
  };
}

/// Per-query diagnostics rows (not metrics): lets a geomean regression be
/// traced to its query.
std::string PerQueryJson(const Phase& p, const Workload& w) {
  std::vector<std::string> rows;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    std::vector<double> lat, compile, exec;
    double peak = 0, spilled = 0;
    for (const Sample& s : p.samples) {
      if (static_cast<size_t>(s.query) != q) continue;
      lat.push_back(s.latency_ms);
      compile.push_back(NanosToMs(s.stats.compile_nanos));
      exec.push_back(NanosToMs(s.stats.exec_nanos));
      peak = std::max(peak, static_cast<double>(s.stats.peak_memory_bytes));
      spilled = std::max(spilled, static_cast<double>(s.stats.spilled_bytes));
    }
    rows.push_back(JsonObject()
                       .Int("query", w.queries[q])
                       .Int("samples", static_cast<int64_t>(lat.size()))
                       .Num("median_ms", Median(lat))
                       .Num("compile_ms", Median(compile))
                       .Num("exec_ms", Median(exec))
                       .Num("peak_mib", peak / kMiB)
                       .Num("spilled_mib", spilled / kMiB)
                       .str());
  }
  return JsonArray(rows);
}

// ------------------------------------------------------ traced layers --

// Spans the program records, reported as self time per query. Every
// "op"-category span (one per executed op node, named after its op type)
// folds into "op".
const char* const kSpanNames[] = {
    "queue.wait", "query",   "compile", "plan.frontend", "compile.lower",
    "pipeline.split", "fusion.compile", "execute", "op", "pipeline",
    "morsel", "grace_join", "partitioned_agg", "external_sort",
};

/// Self time of every span: its duration minus the union of its children's
/// intervals (children may run on other threads), summed per span name.
std::map<std::string, double> SpanSelfMs(const std::vector<tqp::obs::TraceEvent>& events) {
  std::map<uint64_t, std::vector<const tqp::obs::TraceEvent*>> children;
  for (const auto& e : events) {
    if (e.phase == tqp::obs::TraceEvent::Phase::kSpan && e.parent_id != 0) {
      children[e.parent_id].push_back(&e);
    }
  }
  std::map<std::string, double> self_ms;
  for (const auto& e : events) {
    if (e.phase != tqp::obs::TraceEvent::Phase::kSpan) continue;
    const int64_t begin = e.ts_nanos, end = e.ts_nanos + e.dur_nanos;
    std::vector<std::pair<int64_t, int64_t>> covered;
    auto it = children.find(e.span_id);
    if (e.span_id != 0 && it != children.end()) {
      for (const auto* c : it->second) {
        const int64_t b = std::max(begin, c->ts_nanos);
        const int64_t f = std::min(end, c->ts_nanos + c->dur_nanos);
        if (f > b) covered.emplace_back(b, f);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_nanos = 0, cursor = begin;
    for (const auto& [b, f] : covered) {
      const int64_t from = std::max(cursor, b);
      if (f > from) covered_nanos += f - from;
      cursor = std::max(cursor, f);
    }
    const std::string name = std::strcmp(e.category, "op") == 0 ? "op" : e.name;
    self_ms[name] += NanosToMs(e.dur_nanos - covered_nanos);
  }
  return self_ms;
}

int CountPlanNodes(const tqp::PlanPtr& plan) {
  if (plan == nullptr) return 0;
  int n = 1;
  for (const tqp::PlanPtr& child : plan->children) n += CountPlanNodes(child);
  return n;
}

/// Direct timings of each layer's public entry point, called from outside
/// the program. Timings are medians over `reps` calls, averaged over the
/// workload's distinct queries; node counts are summed over them.
struct LayerProbe {
  double parse_us = 0, bind_us = 0, optimize_us = 0, physical_us = 0;
  double lower_us = 0, collect_inputs_us = 0, first_run_extra_us = 0;
  double exec_ms = 0;  // sum of per-query warm RunWithInputs medians
  int64_t plan_nodes = 0, program_nodes = 0;
  int64_t mismatches = 0, runs = 0;
};

template <typename F>
double MedianMicros(int reps, F&& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    Stopwatch t;
    fn();
    us.push_back(t.ElapsedMicros());
  }
  return Median(us);
}

template <typename T>
T Must(tqp::Result<T> r, const char* what) {
  if (!r.ok()) Fail(std::string(what) + " failed: " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

LayerProbe ProbeLayers(const QueryScheduler& scheduler, const Catalog& catalog,
                       const std::vector<std::string>& sqls,
                       const std::vector<Table>& expected, int reps, int warm_runs) {
  LayerProbe probe;
  const tqp::CompileOptions& compile = scheduler.options().compile;
  const tqp::PhysicalOptions physical;
  const tqp::QueryCompiler compiler;
  const int64_t budget = tqp::BufferPool::ResolveMemoryBudget(compile.memory_budget_bytes);
  for (size_t q = 0; q < sqls.size(); ++q) {
    const std::string& sql = sqls[q];
    probe.parse_us += MedianMicros(reps, [&] { Must(tqp::sql::ParseSelect(sql), "parse"); });
    const auto stmt = Must(tqp::sql::ParseSelect(sql), "parse");
    probe.bind_us += MedianMicros(reps, [&] {
      tqp::Binder binder(&catalog);
      Must(binder.Bind(*stmt), "bind");
    });
    tqp::Binder binder(&catalog);
    const tqp::PlanPtr logical = Must(binder.Bind(*stmt), "bind");
    probe.optimize_us += MedianMicros(
        reps, [&] { Must(tqp::Optimize(logical, physical.optimizer), "optimize"); });
    const tqp::PlanPtr optimized = Must(tqp::Optimize(logical, physical.optimizer), "optimize");
    probe.plan_nodes += CountPlanNodes(optimized);
    tqp::PlanPtr plan;
    probe.physical_us +=
        MedianMicros(reps, [&] { plan = tqp::ChoosePhysical(optimized, physical); });
    probe.lower_us += MedianMicros(reps, [&] { Must(compiler.Compile(plan, compile), "lower"); });
    const tqp::CompiledQuery compiled = Must(compiler.Compile(plan, compile), "lower");
    probe.program_nodes += compiled.program().num_nodes();
    std::vector<tqp::Tensor> inputs;
    probe.collect_inputs_us += MedianMicros(
        reps, [&] { inputs = Must(compiled.CollectInputs(catalog), "collect inputs"); });
    // The same per-query memory scope the scheduler gives a query.
    std::vector<double> run_us;
    for (int i = 0; i <= warm_runs; ++i) {
      tqp::BufferPool::QueryScope scope(budget);
      tqp::BufferPool::QueryScope::Attach attach(&scope);
      Stopwatch t;
      const Table result = Must(compiled.RunWithInputs(inputs), "run");
      run_us.push_back(t.ElapsedMicros());
      ++probe.runs;
      if (!tqp::TablesEqualUnordered(result, expected[q]).ok()) ++probe.mismatches;
    }
    const double first = run_us.front();
    run_us.erase(run_us.begin());
    const double warm = run_us.empty() ? first : Median(run_us);
    probe.first_run_extra_us += first - warm;
    probe.exec_ms += warm * 1e-3;
  }
  const double n = static_cast<double>(sqls.size());
  probe.parse_us /= n;
  probe.bind_us /= n;
  probe.optimize_us /= n;
  probe.physical_us /= n;
  probe.lower_us /= n;
  probe.collect_inputs_us /= n;
  probe.first_run_extra_us /= n;
  return probe;
}

std::vector<Metric> PerLayerMetrics(const Workload& w, const Phase& untraced,
                                    const Phase& traced, const LayerProbe& probe,
                                    const std::map<std::string, double>& span_self_ms,
                                    double dbgen_s) {
  const double done = static_cast<double>(untraced.samples.size());
  auto count = [&](const char* name) {
    return static_cast<double>(untraced.counters.at(name));
  };
  auto per_query = [&](const char* name) { return Ratio(count(name), done); };
  using tqp::runtime::QueryStats;
  auto stat_ms = [&](double q, int64_t QueryStats::*nanos) {
    return Percentile(Field(untraced, [&](const Sample& s) { return NanosToMs(s.stats.*nanos); }),
                      q);
  };
  double cache_hits = 0, spilled = 0;
  std::vector<bool> over_budget(w.queries.size(), false);
  for (const Sample& s : untraced.samples) {
    cache_hits += s.stats.cache_hit ? 1 : 0;
    spilled += static_cast<double>(s.stats.spilled_bytes);
    if (s.stats.memory_budget_bytes > 0 &&
        s.stats.peak_memory_bytes > s.stats.memory_budget_bytes) {
      over_budget[static_cast<size_t>(s.query)] = true;
    }
  }
  const std::vector<double> overhead_us = Field(untraced, [](const Sample& s) {
    return s.latency_ms * 1e3 -
           static_cast<double>(s.stats.queue_nanos + s.stats.compile_nanos +
                               s.stats.exec_nanos) * 1e-3;
  });
  const double untraced_qps = Ratio(done, untraced.wall_s);
  const double traced_qps =
      Ratio(static_cast<double>(traced.samples.size()), traced.wall_s);
  std::vector<Metric> m = {
      {"tpch.dbgen_s", dbgen_s, "s"},
      {"sql.parse_us", probe.parse_us, "us"},
      {"plan.bind_us", probe.bind_us, "us"},
      {"plan.optimize_us", probe.optimize_us, "us"},
      {"plan.physical_us", probe.physical_us, "us"},
      {"plan.nodes", static_cast<double>(probe.plan_nodes), "count"},
      {"compile.lower_us", probe.lower_us, "us"},
      {"compile.program_nodes", static_cast<double>(probe.program_nodes), "count"},
      {"compile.first_run_extra_us", probe.first_run_extra_us, "us"},
      {"runtime.collect_inputs_us", probe.collect_inputs_us, "us"},
      {"runtime.exec_ms", probe.exec_ms, "ms"},
      {"runtime.threadpool_tasks_per_query", per_query("pool_tasks"), "count"},
      {"runtime.threadpool_steals_per_query", per_query("pool_steals"), "count"},
      {"runtime.steps_per_query", per_query("steps"), "count"},
      {"runtime.morsel_evals_per_query", per_query("tqp_morsel_evals_total"), "count"},
      {"session.queue_ms_p50", stat_ms(0.5, &QueryStats::queue_nanos), "ms"},
      {"session.queue_ms_p90", stat_ms(0.9, &QueryStats::queue_nanos), "ms"},
      {"session.compile_ms_p50", stat_ms(0.5, &QueryStats::compile_nanos), "ms"},
      {"session.exec_ms_p50", stat_ms(0.5, &QueryStats::exec_nanos), "ms"},
      {"session.overhead_us_p50", Percentile(overhead_us, 0.5), "us"},
      {"session.plan_cache_hit_ratio", Ratio(cache_hits, done), "ratio"},
      {"session.rejected", static_cast<double>(untraced.rejected + traced.rejected), "count"},
      {"operators.breaker_invocations", per_query("tqp_breaker_invocations_total"), "count"},
      {"operators.breaker_partitions", per_query("tqp_breaker_partitions_total"), "count"},
      {"operators.breaker_spilled_mib", per_query("tqp_breaker_spilled_bytes_total") / kMiB,
       "MiB"},
      {"kernels.expr_simd_share",
       Ratio(count("tqp_expr_backend_simd_total"),
             count("tqp_expr_backend_simd_total") + count("tqp_expr_backend_interp_total")),
       "ratio"},
      {"tensor.allocs_per_query",
       Ratio(count("buffer_allocations") + count("buffer_bypass"), done), "count"},
      {"tensor.recycle_hit_ratio",
       Ratio(count("buffer_hits"), count("buffer_allocations")), "ratio"},
      {"tensor.spilled_mib", Ratio(spilled, done) / kMiB, "MiB"},
      {"tensor.spill_events", per_query("tqp_spill_events_total"), "count"},
      {"tensor.over_budget_queries",
       static_cast<double>(std::count(over_budget.begin(), over_budget.end(), true)), "count"},
      {"obs.trace_overhead_ratio", Ratio(untraced_qps, traced_qps), "ratio"},
  };
  for (Metric& l : LatencyMetrics(untraced, w.queries.size(), "session.")) {
    m.push_back(std::move(l));
  }
  const double traced_done = static_cast<double>(traced.samples.size());
  for (const char* name : kSpanNames) {
    auto it = span_self_ms.find(name);
    const double total = it != span_self_ms.end() ? it->second : 0.0;
    m.push_back({std::string("obs.span_self_ms.") + name, Ratio(total, traced_done), "ms"});
  }
  return m;
}

// ---------------------------------------------------------------- main --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string report;
  std::string chrome_trace;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value().c_str());
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--report") {
      a.report = value();
    } else if (flag == "--chrome-trace") {
      a.chrome_trace = value();
    } else {
      Fail("unknown argument " + flag);
    }
  }
  if (!have_workload) Fail("--workload is required");
  if (a.seconds <= 0) Fail("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) Fail("--trace must be 0 or 1");
  return a;
}

void WriteFile(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) Fail("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  GuardConfiguration();
  const Workload* found = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) Fail("unknown workload " + args.workload);
  Workload w = *found;
  if (args.smoke) {
    const double shrink = kSmokeScaleFactor / w.scale_factor;
    w.budget_bytes = static_cast<int64_t>(static_cast<double>(w.budget_bytes) * shrink);
    w.scale_factor = kSmokeScaleFactor;
  }
  std::vector<std::string> sqls;
  for (int q : w.queries) sqls.push_back(Must(tqp::tpch::QueryText(q), "query text"));

  // Set-up, several times; the last one serves the run.
  const int setup_reps = args.smoke || args.trace ? 1 : 3;
  Server server;
  std::vector<double> setup_cpu_s, setup_wall_s, dbgen_s;
  for (int i = 0; i < setup_reps; ++i) {
    const SetUpCost cost = SetUp(w, args.seed, sqls, &server);
    setup_cpu_s.push_back(cost.cpu_s);
    setup_wall_s.push_back(cost.wall_s);
    dbgen_s.push_back(cost.dbgen_s);
  }
  const std::vector<Table> expected = ComputeOracle(*server.catalog, sqls);

  // A smoke run makes one pass per client. The traced phase is capped at a
  // few passes so its Chrome trace stays a few MiB on the small-query
  // workload.
  const Limit timed = args.smoke ? Limit{0, 1} : Limit{args.seconds, 0};
  const Limit half = args.smoke ? timed : Limit{args.seconds / 2, 0};
  const Limit traced_limit = args.smoke ? timed : Limit{args.seconds / 2, 5};
  std::vector<Metric> metrics;
  std::vector<const Phase*> phases;
  Phase untraced, traced;
  if (args.trace == 0) {
    untraced = RunClosedLoop(server.scheduler.get(), w, args.seed, sqls, expected, timed);
    phases = {&untraced};
    metrics = EndToEndMetrics(untraced, sqls.size(), Median(setup_cpu_s));
  } else {
    untraced = RunClosedLoop(server.scheduler.get(), w, args.seed, sqls, expected, half);
    tqp::obs::TraceSession session;
    {
      QueryScheduler traced_scheduler(server.catalog.get(), OptionsFor(w, &session));
      WarmUp(&traced_scheduler, sqls);
      session.Clear();
      traced = RunClosedLoop(&traced_scheduler, w, args.seed, sqls, expected, traced_limit);
    }
    WriteFile(args.chrome_trace, session.ToChromeTrace("tqp_perfbench"));
    const int reps = args.smoke ? 1 : 5;
    const int warm_runs = args.smoke ? 1 : 2;
    const LayerProbe probe =
        ProbeLayers(*server.scheduler, *server.catalog, sqls, expected, reps, warm_runs);
    if (probe.mismatches > 0) {
      traced.mismatches += probe.mismatches;
      traced.failures.push_back("direct RunWithInputs differs from the oracle");
    }
    traced.attempted += probe.runs;
    phases = {&untraced, &traced};
    metrics = PerLayerMetrics(w, untraced, traced, probe, SpanSelfMs(session.events()),
                              Median(dbgen_s));
  }

  int64_t attempted = 0, failed = 0, mismatches = 0;
  for (const Phase* p : phases) {
    attempted += p->attempted;
    failed += Failed(*p);
    mismatches += p->mismatches;
    for (const std::string& f : p->failures) std::fprintf(stderr, "failure: %s\n", f.c_str());
  }
  const bool correct = failed == 0 && attempted > 0;
  const std::string metrics_json = MetricsJson(metrics);
  const std::vector<Metric> latency = LatencyMetrics(untraced, w.queries.size(), "");

  JsonObject report;
  report.Str("workload", w.name)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Int("trace", args.trace)
      .Bool("smoke", args.smoke)
      .Num("scale_factor", w.scale_factor)
      .Int("clients", w.clients)
      .Int("memory_budget_bytes", w.budget_bytes)
      .Raw("config", ConfigJson())
      .Str("data_fingerprint", std::to_string(Fingerprint(expected)))
      .Int("latency_samples", static_cast<int64_t>(untraced.samples.size()))
      .Num("timed_wall_s", untraced.wall_s)
      .Raw("stream_s", JsonArray(ToJson(untraced.pass_s)))
      .Num("failed_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted)))
      .Raw("setup_cpu_s", JsonArray(ToJson(setup_cpu_s)))
      .Raw("setup_wall_s", JsonArray(ToJson(setup_wall_s)))
      .Raw("latency", MetricsJson(latency))
      .Raw("per_query", PerQueryJson(untraced, w))
      .Raw("metrics", metrics_json);
  WriteFile(args.report, report.str() + "\n");

  std::fprintf(stderr,
               "%s seed=%llu trace=%d: %zu timed queries in %.2f s, attempted=%lld "
               "failed=%lld (failed_frac=%.4f)\n",
               w.name, static_cast<unsigned long long>(args.seed), args.trace,
               untraced.samples.size(), untraced.wall_s, static_cast<long long>(attempted),
               static_cast<long long>(failed),
               Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  for (const std::vector<Metric>* list : {&std::as_const(metrics), &latency}) {
    for (const Metric& m : *list) {
      std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("%s\n", JsonObject()
                          .Bool("correct", correct)
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Raw("metrics", metrics_json)
                          .str()
                          .c_str());
  std::fflush(stdout);
  // A result that differs from the oracle fails the run.
  return mismatches > 0 ? 1 : 0;
}
