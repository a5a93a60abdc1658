#include "runtime/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "runtime/query_context.h"
#include "tensor/buffer_pool.h"

namespace tqp::runtime {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

QueryScheduler::QueryScheduler(const Catalog* catalog, SchedulerOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      pool_(options_.pool != nullptr ? options_.pool : ThreadPool::Global()),
      steps_(pool_),
      plan_cache_(options_.plan_cache_capacity) {
  if (options_.max_concurrent <= 0) options_.max_concurrent = 1;
  // Every compiled executor schedules on the scheduler's shared pool — one
  // cross-query pool instead of a pool per executor — and dispatches its
  // execution-DAG steps through the scheduler's priority-aware
  // StepScheduler, so steps of concurrent queries interleave by
  // QueryPriority class.
  options_.pool = pool_;
  options_.compile.pool = pool_;
  options_.compile.step_scheduler = &steps_;
}

QueryScheduler::~QueryScheduler() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  // Drain: queued jobs still execute; wait until the last worker task has
  // finished touching this object (workers notify under mu_). The wait
  // cooperates like ParallelFor's: if this destructor runs on one of the
  // shared pool's own workers, blocking alone would starve the WorkerBody
  // tasks it is waiting for, so run queued pool tasks in the meantime.
  while (true) {
    {
      MutexLock lock(mu_);
      if (active_workers_ == 0 && queued_total_ == 0) return;
    }
    if (pool_->TryRunOneTask()) continue;
    MutexLock lock(mu_);
    // Predicate-less timed wait + re-check under the lock: the condition
    // reads mu_-guarded fields, which a predicate lambda could not touch
    // under the thread-safety analysis. Spurious wakeups just loop.
    idle_cv_.WaitFor(mu_, std::chrono::milliseconds(1));
    if (active_workers_ == 0 && queued_total_ == 0) return;
  }
}

Result<std::future<QueryOutcome>> QueryScheduler::Submit(const std::string& sql,
                                                         QueryPriority priority,
                                                         uint64_t* query_id) {
  Job job;
  job.sql = sql;
  job.priority = priority;
  job.enqueue_nanos = NowNanos();
  // The cancellation token is born at admission and its deadline (when one
  // is configured) is armed from enqueue time: queue wait counts against
  // the deadline, which is what makes queued-too-long shedding work.
  job.token = std::make_shared<CancellationToken>();
  const int64_t deadline_ms = ResolveDeadlineMs(options_.compile.deadline_ms);
  if (deadline_ms > 0) job.token->SetDeadlineAfterMs(deadline_ms);
  std::future<QueryOutcome> future = job.promise.get_future();
  int spawn = 0;
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      return Status::Invalid("scheduler is shutting down");
    }
    if (queued_total_ >= options_.queue_capacity) {
      ++counters_.rejected;
      static obs::Counter* rejected_metric =
          obs::MetricsRegistry::Global()->GetCounter(
              "tqp_queries_rejected_total",
              "Queries rejected at admission (full queue or backpressure)");
      rejected_metric->Add(1);
      return Status::Invalid("admission queue full (" +
                             std::to_string(options_.queue_capacity) +
                             " queries waiting); retry later");
    }
    if (priority == QueryPriority::kLow) {
      const double watermark = std::clamp(options_.backpressure_watermark, 0.0, 1.0);
      // Ceil, not truncate: shedding starts once the queue actually *holds*
      // watermark*capacity queries (a 0.1 watermark over capacity 8 must not
      // shed on an idle queue).
      const auto threshold = static_cast<size_t>(
          std::ceil(watermark * static_cast<double>(options_.queue_capacity)));
      if (queued_total_ >= threshold) {
        ++counters_.rejected;
        ++counters_.shed_low_priority;
        static obs::Counter* rejected_metric =
            obs::MetricsRegistry::Global()->GetCounter(
                "tqp_queries_rejected_total",
                "Queries rejected at admission (full queue or backpressure)");
        rejected_metric->Add(1);
        static obs::Counter* shed_metric =
            obs::MetricsRegistry::Global()->GetCounter(
                "tqp_queries_shed_total",
                "Low-priority queries shed under admission backpressure");
        shed_metric->Add(1);
        if (options_.trace != nullptr) {
          obs::TraceEvent shed;
          shed.phase = obs::TraceEvent::Phase::kInstant;
          shed.category = "query";
          shed.name = "shed";
          shed.ts_nanos = obs::TraceNowNanos();
          shed.thread_id = obs::TraceThreadId();
          shed.AddArg("queued", static_cast<int64_t>(queued_total_));
          options_.trace->Append(std::move(shed));
        }
        return Status::Invalid(
            "admission queue under backpressure (" +
            std::to_string(queued_total_) +
            " queries waiting); low-priority query shed, retry later");
      }
    }
    ++counters_.admitted;
    static obs::Counter* admitted_metric =
        obs::MetricsRegistry::Global()->GetCounter(
            "tqp_queries_admitted_total", "Queries admitted by schedulers");
    admitted_metric->Add(1);
    if (options_.trace != nullptr) {
      // Tag the job with its trace query id now: every span it records —
      // on whichever worker picks it up — carries this id, which is what
      // lets one session's timeline separate interleaved queries.
      job.trace_query_id = options_.trace->NextQueryId();
      obs::TraceEvent admit;
      admit.phase = obs::TraceEvent::Phase::kInstant;
      admit.category = "query";
      admit.name = "admit";
      admit.ts_nanos = job.enqueue_nanos;
      admit.query_id = job.trace_query_id;
      admit.thread_id = obs::TraceThreadId();
      admit.AddArg("priority", static_cast<int64_t>(priority));
      admit.AddArg("queued", static_cast<int64_t>(queued_total_));
      options_.trace->Append(std::move(admit));
    }
    job.query_id = next_query_id_++;
    if (query_id != nullptr) *query_id = job.query_id;
    tokens_.emplace(job.query_id, TokenEntry{job.token, priority});
    queues_[static_cast<size_t>(priority)].push_back(std::move(job));
    ++queued_total_;
    spawn = ReserveWorkersLocked();
  }
  // Submit outside mu_: a pool may run the task inline (the task_submit
  // fault seam does), and WorkerBody takes mu_.
  for (int i = 0; i < spawn; ++i) pool_->Submit([this] { WorkerBody(); });
  return future;
}

bool QueryScheduler::Cancel(uint64_t query_id) {
  std::shared_ptr<CancellationToken> token;
  {
    MutexLock lock(mu_);
    auto it = tokens_.find(query_id);
    if (it == tokens_.end()) return false;
    token = it->second.token;
  }
  // Signal outside mu_: RequestCancel is lock-free, but holding the
  // scheduler lock across it buys nothing and this keeps Cancel callable
  // from anywhere (shell command handlers included).
  token->RequestCancel(CancelReason::kUserCancelled);
  obs::TraceInstant("query", "cancel.request", "query_id",
                    static_cast<int64_t>(query_id));
  return true;
}

int QueryScheduler::PreemptLowPriority() {
  std::vector<std::shared_ptr<CancellationToken>> victims;
  {
    MutexLock lock(mu_);
    for (const auto& [id, entry] : tokens_) {
      (void)id;
      if (entry.priority == QueryPriority::kLow) victims.push_back(entry.token);
    }
  }
  for (const auto& token : victims) {
    token->RequestCancel(CancelReason::kPreempted);
  }
  if (!victims.empty()) {
    obs::TraceInstant("query", "preempt.low_priority", "victims",
                      static_cast<int64_t>(victims.size()));
  }
  return static_cast<int>(victims.size());
}

int QueryScheduler::ReserveWorkersLocked() {
  // Workers that are spawned-but-not-executing will each pop one queued job
  // soon; spawn more only for jobs beyond that, up to max_concurrent.
  int spawn = 0;
  while (active_workers_ < options_.max_concurrent &&
         queued_total_ > static_cast<size_t>(active_workers_ - executing_workers_)) {
    ++active_workers_;
    ++spawn;
  }
  return spawn;
}

bool QueryScheduler::PopJobLocked(Job* job) {
  for (int p = kNumQueryPriorities - 1; p >= 0; --p) {
    auto& q = queues_[static_cast<size_t>(p)];
    if (q.empty()) continue;
    *job = std::move(q.front());
    q.pop_front();
    --queued_total_;
    return true;
  }
  return false;
}

void QueryScheduler::WorkerBody() {
  while (true) {
    Job job;
    {
      MutexLock lock(mu_);
      if (!PopJobLocked(&job)) {
        --active_workers_;
        // Notify under mu_ so the destructor cannot tear the object down
        // between our predicate update and the notify.
        idle_cv_.NotifyAll();
        return;
      }
      ++executing_workers_;
    }
    QueryOutcome outcome = Execute(&job);
    {
      MutexLock lock(mu_);
      --executing_workers_;
      ++counters_.completed;
      if (!outcome.status.ok()) ++counters_.failed;
      counters_.spilled_bytes += outcome.stats.spilled_bytes;
      if (outcome.stats.spilled_bytes > 0) ++counters_.queries_spilled;
      switch (outcome.termination_reason) {
        case CancelReason::kUserCancelled:
          ++counters_.cancelled;
          break;
        case CancelReason::kDeadlineExceeded:
          ++counters_.timed_out;
          if (outcome.stats.timed_out_in_queue) ++counters_.timed_out_queued;
          break;
        case CancelReason::kPreempted:
          ++counters_.preempted;
          break;
        case CancelReason::kNone:
          break;
      }
      tokens_.erase(job.query_id);  // Cancel now reports "unknown id"
    }
    if (outcome.termination_reason != CancelReason::kNone) {
      static obs::Counter* cancelled_metric =
          obs::MetricsRegistry::Global()->GetCounter(
              "tqp_queries_cancelled_total",
              "Queries terminated by explicit cancellation requests");
      static obs::Counter* timeout_metric =
          obs::MetricsRegistry::Global()->GetCounter(
              "tqp_queries_timed_out_total",
              "Queries terminated by deadline expiry (queued or running)");
      static obs::Counter* timeout_queued_metric =
          obs::MetricsRegistry::Global()->GetCounter(
              "tqp_queries_timed_out_queued",
              "Queries whose deadline expired before execution started");
      static obs::Counter* preempted_metric =
          obs::MetricsRegistry::Global()->GetCounter(
              "tqp_queries_preempted_total",
              "Low-priority queries preempted under memory pressure");
      switch (outcome.termination_reason) {
        case CancelReason::kUserCancelled:
          cancelled_metric->Add(1);
          break;
        case CancelReason::kDeadlineExceeded:
          timeout_metric->Add(1);
          if (outcome.stats.timed_out_in_queue) timeout_queued_metric->Add(1);
          break;
        case CancelReason::kPreempted:
          preempted_metric->Add(1);
          break;
        case CancelReason::kNone:
          break;
      }
    }
    static obs::Counter* completed_metric =
        obs::MetricsRegistry::Global()->GetCounter(
            "tqp_queries_completed_total",
            "Queries that finished executing (including failures)");
    completed_metric->Add(1);
    if (!outcome.status.ok()) {
      static obs::Counter* failed_metric =
          obs::MetricsRegistry::Global()->GetCounter(
              "tqp_queries_failed_total",
              "Queries that finished with an error status");
      failed_metric->Add(1);
    }
    static obs::Histogram* latency_hist =
        obs::MetricsRegistry::Global()->GetHistogram(
            "tqp_query_latency_seconds",
            "End-to-end query latency, admission to completion",
            obs::Histogram::LatencyBounds());
    latency_hist->Observe(
        static_cast<double>(NowNanos() - job.enqueue_nanos) * 1e-9);
    job.promise.set_value(std::move(outcome));
  }
}

QueryOutcome QueryScheduler::Execute(Job* job) {
  QueryOutcome outcome;
  outcome.stats.queue_nanos = NowNanos() - job->enqueue_nanos;
  static obs::Histogram* queue_hist =
      obs::MetricsRegistry::Global()->GetHistogram(
          "tqp_query_queue_seconds",
          "Admission-queue wait, enqueue to worker pickup",
          obs::Histogram::LatencyBounds());
  queue_hist->Observe(static_cast<double>(outcome.stats.queue_nanos) * 1e-9);

  // The query's context, ambient for the whole query and carried into every
  // task and step its execution submits:
  //  - trace: every span lands in the scheduler's session tagged with this
  //    query's id (with tracing off, a null session);
  //  - memory: every allocation charges this scope (a plan-cache miss's
  //    compile included), and with a budget set
  //    (CompileOptions::memory_budget_bytes / TQP_MEMORY_BUDGET_MB) an
  //    over-budget query spills cold intermediates to disk instead of
  //    growing resident memory;
  //  - cancellation: the executor polls the token armed at admission
  //    instead of arming a second deadline;
  //  - priority: the query's steps enter the shared StepScheduler tagged
  //    with its admission priority.
  BufferPool::QueryScope memory_scope(
      BufferPool::ResolveMemoryBudget(options_.compile.memory_budget_bytes));
  const QueryContext context{&memory_scope, job->token.get(),
                             obs::TraceContextState{options_.trace,
                                                    job->trace_query_id, 0},
                             static_cast<int>(job->priority)};
  QueryContext::Attach attach(context);
  // Queued-too-long shedding and pre-execution cancellation: the token was
  // armed at admission, so a deadline that expired during the queue wait —
  // or a Cancel that landed before pickup — terminates the query here with
  // a structured error instead of executing it late.
  if (job->token != nullptr && job->token->cancelled()) {
    outcome.status = job->token->CheckCancelled();
    outcome.termination_reason = job->token->reason();
    outcome.stats.timed_out_in_queue =
        outcome.termination_reason == CancelReason::kDeadlineExceeded;
    if (outcome.stats.timed_out_in_queue) {
      outcome.status = outcome.status.WithContext(
          "deadline expired in admission queue after " +
          std::to_string(outcome.stats.queue_nanos / 1000000) + " ms");
      obs::TraceInstant("query", "shed.expired", "queued_ms",
                        outcome.stats.queue_nanos / 1000000);
    }
    return outcome;
  }
  // The queue wait already happened (on no particular thread); record it
  // backdated as a top-level span so the timeline shows admission-to-pickup
  // next to the execution that follows.
  obs::TraceSpanWithTimes("query", "queue.wait", job->enqueue_nanos,
                          outcome.stats.queue_nanos);
  obs::TraceSpan query_span("query", "query");
  if (query_span.enabled()) query_span.SetDetail(job->sql);

  const std::string normalized = NormalizeSql(job->sql);
  // Cache lookup with in-flight dedup: a burst of identical statements
  // compiles once — the worker that claims the statement compiles it while
  // the others wait and pick the plan up from the cache. The lookup runs
  // under compile_mu_: a compile inserts its plan before it drops its claim
  // under that mutex, so a miss here means the statement is either claimed
  // or not compiled yet, never compiled-and-released in between.
  std::shared_ptr<const CompiledQuery> plan;
  {
    MutexLock lock(compile_mu_);
    while (true) {
      plan = plan_cache_.Lookup(normalized);
      if (plan != nullptr) break;
      if (compiling_.count(normalized) == 0) {
        compiling_.insert(normalized);  // our claim; compile below
        break;
      }
      compile_cv_.Wait(compile_mu_);
      // Woken: either the plan is cached now, or the compiling worker
      // failed (no cache entry) and the loop re-contends for the claim.
    }
  }
  if (plan != nullptr) {
    outcome.stats.cache_hit = true;
    obs::TraceInstant("compile", "plancache.hit", "query",
                      static_cast<int64_t>(job->trace_query_id));
  } else {
    Stopwatch compile_timer;
    auto compiled_or = [&] {
      obs::TraceSpan compile_span("compile", "compile");
      return compiler_.CompileSql(job->sql, *catalog_, options_.compile);
    }();
    outcome.stats.compile_nanos = compile_timer.ElapsedNanos();
    static obs::Histogram* compile_hist =
        obs::MetricsRegistry::Global()->GetHistogram(
            "tqp_query_compile_seconds",
            "SQL-to-executable compile latency (plan-cache misses only)",
            obs::Histogram::LatencyBounds());
    compile_hist->Observe(static_cast<double>(outcome.stats.compile_nanos) *
                          1e-9);
    if (compiled_or.ok()) {
      plan = std::make_shared<const CompiledQuery>(
          std::move(compiled_or).ValueOrDie());
      plan_cache_.Insert(normalized, plan);
    }
    {
      MutexLock lock(compile_mu_);
      compiling_.erase(normalized);
    }
    compile_cv_.NotifyAll();
    if (!compiled_or.ok()) {
      outcome.status = compiled_or.status();
      return outcome;
    }
  }

  Stopwatch exec_timer;
  auto result_or = [&] {
    obs::TraceSpan exec_span("query", "execute");
    return plan->Run(*catalog_);
  }();
  outcome.stats.exec_nanos = exec_timer.ElapsedNanos();
  static obs::Histogram* exec_hist =
      obs::MetricsRegistry::Global()->GetHistogram(
          "tqp_query_exec_seconds", "Plan execution latency",
          obs::Histogram::LatencyBounds());
  exec_hist->Observe(static_cast<double>(outcome.stats.exec_nanos) * 1e-9);
  const QueryMemoryStats mem = memory_scope.stats();
  outcome.stats.memory_budget_bytes = mem.budget_bytes;
  outcome.stats.peak_memory_bytes = mem.peak_live_bytes;
  outcome.stats.spilled_bytes = mem.spilled_bytes;
  if (!result_or.ok()) {
    outcome.status = result_or.status();
    // A termination status with the token fired means the stop was the
    // cooperative kind — surface the structured reason (a plain execution
    // error leaves kNone even if a late cancel raced in after the failure).
    if (outcome.status.IsTermination() && job->token != nullptr &&
        job->token->reason() != CancelReason::kNone) {
      outcome.termination_reason = job->token->reason();
      obs::TraceInstant("query", "terminated", "reason",
                        static_cast<int64_t>(outcome.termination_reason));
    }
    return outcome;
  }
  outcome.table = std::move(result_or).ValueOrDie();
  outcome.stats.result_rows = outcome.table.num_rows();
  if (query_span.enabled()) {
    query_span.AddArg("rows", outcome.stats.result_rows);
    query_span.AddArg("cache_hit", outcome.stats.cache_hit ? 1 : 0);
    query_span.AddArg("spilled_bytes", outcome.stats.spilled_bytes);
  }
  outcome.status = Status::OK();
  return outcome;
}

SchedulerCounters QueryScheduler::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

QuerySession::QuerySession(QueryScheduler* scheduler, std::string name,
                           QueryPriority priority)
    : scheduler_(scheduler), name_(std::move(name)), priority_(priority) {}

Result<std::future<QueryOutcome>> QuerySession::ExecuteAsync(
    const std::string& sql) {
  return scheduler_->Submit(sql, priority_);
}

Result<Table> QuerySession::Execute(const std::string& sql) {
  auto future_or = scheduler_->Submit(sql, priority_);
  if (!future_or.ok()) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return future_or.status();
  }
  QueryOutcome outcome = future_or.ValueOrDie().get();
  total_exec_nanos_.fetch_add(outcome.stats.exec_nanos,
                              std::memory_order_relaxed);
  if (!outcome.status.ok()) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return outcome.status;
  }
  queries_ok_.fetch_add(1, std::memory_order_relaxed);
  return std::move(outcome.table);
}

}  // namespace tqp::runtime
