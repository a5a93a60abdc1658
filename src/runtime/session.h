#ifndef TQP_RUNTIME_SESSION_H_
#define TQP_RUNTIME_SESSION_H_

#include <array>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/sync.h"
#include "compile/compiler.h"
#include "obs/trace.h"
#include "plan/catalog.h"
#include "runtime/plan_cache.h"
#include "runtime/step_scheduler.h"
#include "runtime/thread_pool.h"

namespace tqp::runtime {

/// \brief Admission priority of one query. Under backpressure (a filling
/// admission queue) low-priority work is shed first; at the queue head,
/// higher priorities dispatch before older lower-priority queries.
enum class QueryPriority : int8_t { kLow = 0, kNormal = 1, kHigh = 2 };

inline constexpr int kNumQueryPriorities = 3;

/// \brief Per-query execution record returned alongside the result.
struct QueryStats {
  int64_t queue_nanos = 0;    // admission -> worker pickup
  int64_t compile_nanos = 0;  // 0 on a plan-cache hit
  int64_t exec_nanos = 0;
  bool cache_hit = false;
  int64_t result_rows = 0;
  /// Per-query memory (BufferPool::QueryScope): the budget the query ran
  /// under (0 = unlimited), its peak live tensor bytes, and how much it
  /// spilled to disk to stay inside the budget.
  int64_t memory_budget_bytes = 0;
  int64_t peak_memory_bytes = 0;
  int64_t spilled_bytes = 0;
  /// True when the deadline expired while the query was still in the
  /// admission queue — it was shed at worker pickup and never executed.
  bool timed_out_in_queue = false;
};

/// \brief Result + stats of one scheduled query.
struct QueryOutcome {
  Status status;  // OK iff `table` is valid
  Table table;
  QueryStats stats;
  /// Structured termination reason when the query was stopped cooperatively
  /// (user cancel, deadline, preemption); kNone for success and for plain
  /// execution errors. `status` carries the matching kCancelled /
  /// kDeadlineExceeded code.
  CancelReason termination_reason = CancelReason::kNone;
};

/// \brief Aggregate scheduler counters (monotonic since construction).
struct SchedulerCounters {
  int64_t admitted = 0;
  int64_t rejected = 0;      // all rejections (full queue + backpressure)
  int64_t shed_low_priority = 0;  // rejections due to backpressure shedding
  int64_t completed = 0;     // includes failed
  int64_t failed = 0;
  /// Bytes completed queries wrote to the disk spill tier to stay inside
  /// their memory budget (a query over budget spills instead of OOM-ing),
  /// and how many completed queries spilled at all (per-eviction counts
  /// live in each query's QueryMemoryStats::spill_events).
  int64_t spilled_bytes = 0;
  int64_t queries_spilled = 0;
  /// Cooperative-termination tallies (all three also count into `failed`).
  int64_t cancelled = 0;         // user requests (Cancel)
  int64_t timed_out = 0;         // deadline expiries, queued or running
  int64_t timed_out_queued = 0;  // subset: expired before execution started
  int64_t preempted = 0;         // kLow queries stopped by PreemptLowPriority
};

struct SchedulerOptions {
  /// Queries executing at once. Each admitted query runs as a task on the
  /// shared thread pool (and fans its kernels out on that same pool), so
  /// this bounds intra-process query concurrency without dedicating threads
  /// per scheduler.
  int max_concurrent = 4;
  /// Bounded admission queue: Submit rejects (does not block) beyond this
  /// many queued-but-not-started queries.
  size_t queue_capacity = 64;
  /// Admission-aware backpressure: once the queue holds at least
  /// `backpressure_watermark * queue_capacity` queries, kLow submissions are
  /// shed immediately instead of queueing behind normal traffic.
  double backpressure_watermark = 0.5;
  /// LRU plan-cache entries (0 disables caching).
  size_t plan_cache_capacity = 32;
  /// The thread pool queries execute and parallelize on. Null selects the
  /// process-wide ThreadPool::Global(), which is how every scheduler (and
  /// every session of every scheduler) ends up sharing one pool. A non-null
  /// pool must outlive the scheduler.
  ThreadPool* pool = nullptr;
  /// Backend/device every admitted query compiles for. The default target is
  /// the PipelinedExecutor on the shared pool: it streams morsels through
  /// fused operator chains and materializes only pipeline outputs.
  CompileOptions compile;
  /// Whole-lifecycle tracing (not owned; must outlive the scheduler). When
  /// set, every admitted query records admission, queue wait, compile /
  /// plan-cache-hit, and execution spans into this session, tagged with a
  /// per-query id — concurrent queries interleave in one exported timeline.
  /// Null (the default) keeps every trace hook to a null-pointer branch.
  obs::TraceSession* trace = nullptr;

  SchedulerOptions() { compile.target = ExecutorTarget::kPipelined; }
};

/// \brief Admission control + dispatch for concurrent queries over a shared
/// catalog: a bounded, priority-ordered admission queue dispatched as at
/// most `max_concurrent` tasks on one shared ThreadPool, with an LRU
/// compiled-plan cache keyed on normalized SQL text.
///
/// There are no per-scheduler worker threads and no per-executor pools: any
/// number of schedulers and sessions multiplex onto the same process-wide
/// pool, queries included — a query's morsel fan-out and another query's
/// admission dispatch interleave on the same workers.
///
/// A query does not execute as one opaque task either: every compiled
/// executor is wired to this scheduler's StepScheduler, so an admitted
/// query's execution DAG — its pipeline steps under kPipelined, the
/// default — is admitted step by step into shared per-priority ready queues,
/// tagged with the query's QueryPriority. Steps of different queries
/// therefore interleave at step granularity, and a long breaker in one query
/// no longer starves every other admitted query; a queued high-priority step
/// always starts before a queued low-priority one. Admission and
/// backpressure semantics (queue capacity, watermark shedding) are
/// unchanged.
///
/// The scheduler owns no table data; the catalog must outlive it. Destruction
/// drains: queued queries still execute, then the destructor waits for every
/// in-flight worker task to finish.
class QueryScheduler {
 public:
  explicit QueryScheduler(const Catalog* catalog, SchedulerOptions options = {});
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// \brief Admits a query. Fails fast with an error (no future) when the
  /// admission queue is full, or — for kLow priority — when the queue is
  /// past the backpressure watermark. When `query_id` is non-null it
  /// receives the admitted query's id, the handle Cancel takes; ids are
  /// process-unique and never 0.
  Result<std::future<QueryOutcome>> Submit(
      const std::string& sql, QueryPriority priority = QueryPriority::kNormal,
      uint64_t* query_id = nullptr);

  /// \brief Requests cooperative cancellation of an admitted query (queued
  /// or executing). Returns false when the id is unknown or the query
  /// already completed. A queued query terminates at worker pickup without
  /// executing; a running one stops within a morsel/step boundary. Either
  /// way its future resolves with Status::Cancelled and a structured
  /// termination reason.
  bool Cancel(uint64_t query_id);

  /// \brief Memory-pressure relief: requests cancellation (reason
  /// kPreempted) of every admitted kLow query, queued and running. Returns
  /// how many tokens were signalled. Callers invoke this when the pool is
  /// under pressure; preempted queries release all memory and fail with a
  /// structured reason so clients can resubmit later.
  int PreemptLowPriority();

  SchedulerCounters counters() const;
  const PlanCache& plan_cache() const { return plan_cache_; }
  const SchedulerOptions& options() const { return options_; }
  /// \brief The shared pool this scheduler executes on (never null).
  ThreadPool* pool() const { return pool_; }
  /// \brief The priority-aware step dispatcher every admitted query's
  /// execution DAG flows through.
  StepScheduler* step_scheduler() { return &steps_; }
  const StepScheduler& step_scheduler() const { return steps_; }

 private:
  struct Job {
    std::string sql;
    QueryPriority priority = QueryPriority::kNormal;
    std::promise<QueryOutcome> promise;
    int64_t enqueue_nanos = 0;
    uint64_t trace_query_id = 0;  // 0 when tracing is off
    uint64_t query_id = 0;        // Cancel handle; assigned at admission
    /// The query's cancellation token, created at admission with the
    /// deadline (CompileOptions::deadline_ms / TQP_QUERY_TIMEOUT_MS) armed
    /// from enqueue time — so queue wait counts against the deadline and
    /// queued-too-long queries shed at pickup. shared_ptr because Cancel /
    /// PreemptLowPriority signal it from other threads via tokens_.
    std::shared_ptr<CancellationToken> token;
  };

  /// Counts the worker tasks to spawn while capacity and work both exist
  /// (as active workers already); the caller submits them after releasing
  /// mu_.
  int ReserveWorkersLocked() TQP_REQUIRES(mu_);
  /// Pops the highest-priority job (FIFO within a priority).
  bool PopJobLocked(Job* job) TQP_REQUIRES(mu_);
  /// One worker task: drains jobs until the queue is empty, then retires.
  void WorkerBody();
  QueryOutcome Execute(Job* job);

  const Catalog* catalog_;
  SchedulerOptions options_;
  ThreadPool* pool_;
  StepScheduler steps_;  // after pool_: constructed from it, drains before it
  PlanCache plan_cache_;
  QueryCompiler compiler_;

  mutable Mutex mu_;
  std::array<std::deque<Job>, kNumQueryPriorities> queues_ TQP_GUARDED_BY(mu_);
  /// Admitted-and-not-yet-completed queries' tokens, the Cancel /
  /// PreemptLowPriority lookup table; entries erase when the worker finishes
  /// the query.
  struct TokenEntry {
    std::shared_ptr<CancellationToken> token;
    QueryPriority priority = QueryPriority::kNormal;
  };
  std::unordered_map<uint64_t, TokenEntry> tokens_ TQP_GUARDED_BY(mu_);
  uint64_t next_query_id_ TQP_GUARDED_BY(mu_) = 1;
  size_t queued_total_ TQP_GUARDED_BY(mu_) = 0;
  /// Worker tasks spawned and not yet retired.
  int active_workers_ TQP_GUARDED_BY(mu_) = 0;
  /// Workers currently inside Execute().
  int executing_workers_ TQP_GUARDED_BY(mu_) = 0;
  bool shutdown_ TQP_GUARDED_BY(mu_) = false;
  SchedulerCounters counters_ TQP_GUARDED_BY(mu_);
  CondVar idle_cv_;  // destructor waits for drain

  // In-flight compilation dedup: concurrent workers with the same normalized
  // statement wait for the first compilation instead of compiling redundantly.
  Mutex compile_mu_;
  CondVar compile_cv_;
  std::set<std::string> compiling_ TQP_GUARDED_BY(compile_mu_);
};

/// \brief A client handle onto a scheduler: convenience sync/async execution
/// plus per-session counters. Cheap to create; many sessions share one
/// scheduler (the "millions of users" fan-in point), and every scheduler
/// shares the process-wide thread pool.
class QuerySession {
 public:
  QuerySession(QueryScheduler* scheduler, std::string name = "session",
               QueryPriority priority = QueryPriority::kNormal);

  /// \brief Admits and waits. Admission rejection surfaces as the error.
  Result<Table> Execute(const std::string& sql);

  /// \brief Admits and returns the future (admission may reject).
  Result<std::future<QueryOutcome>> ExecuteAsync(const std::string& sql);

  const std::string& name() const { return name_; }
  QueryPriority priority() const { return priority_; }
  int64_t queries_ok() const { return queries_ok_.load(std::memory_order_relaxed); }
  int64_t queries_failed() const {
    return queries_failed_.load(std::memory_order_relaxed);
  }
  int64_t total_exec_nanos() const {
    return total_exec_nanos_.load(std::memory_order_relaxed);
  }

 private:
  QueryScheduler* scheduler_;
  std::string name_;
  QueryPriority priority_;
  std::atomic<int64_t> queries_ok_{0};
  std::atomic<int64_t> queries_failed_{0};
  std::atomic<int64_t> total_exec_nanos_{0};
};

}  // namespace tqp::runtime

#endif  // TQP_RUNTIME_SESSION_H_
