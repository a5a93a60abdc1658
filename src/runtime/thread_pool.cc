#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

#include "common/cancel.h"
#include "common/env.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "runtime/morsel.h"
#include "runtime/query_context.h"

namespace tqp::runtime {

namespace {

// Thread-local index of the worker running on this thread (-1 off-pool).
// Keyed by pool so tasks of a private pool don't misroute submissions made
// while running on the global pool (and vice versa).
thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_worker_index = -1;

}  // namespace

int ThreadPool::DefaultThreadCount() {
  static const int count = [] {
    // 0 (the fallback) selects hardware concurrency; garbage or negative
    // values warn and fall back instead of silently truncating.
    const int64_t env = EnvInt64OrDefault("TQP_THREADS", 0, 0, 256);
    if (env > 0) return static_cast<int>(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 2;
  }();
  return count;
}

ThreadPool* ThreadPool::Global() {
  static ThreadPool* pool = [] {
    auto* p = new ThreadPool(DefaultThreadCount());
    // The process-wide pool publishes itself as callback gauges: values are
    // sampled at exposition time, so the task hot path pays nothing beyond
    // its own relaxed counters.
    auto* registry = obs::MetricsRegistry::Global();
    registry->RegisterCallbackGauge(
        "tqp_threadpool_threads", "Worker threads in the process-wide pool",
        [p] { return static_cast<int64_t>(p->num_threads()); });
    registry->RegisterCallbackGauge(
        "tqp_threadpool_tasks_executed_total",
        "Tasks executed on the process-wide pool",
        [p] { return p->tasks_executed(); });
    registry->RegisterCallbackGauge(
        "tqp_threadpool_steals_total",
        "Tasks stolen from another worker's queue on the process-wide pool",
        [p] { return p->steals(); });
    return p;
  }();
  return pool;
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = DefaultThreadCount();
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  // Same empty critical section as Submit: a worker that read stop_==false
  // under wake_mu_ must be fully asleep before the notify, or it would miss
  // it and hang this join forever.
  { MutexLock wake_lock(wake_mu_); }
  wake_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Tasks run under the submitter's query context: a query's morsel
  // fan-out and DAG continuations charge its memory scope, poll its
  // cancellation token and record into its trace session on any worker, and
  // a task submitted outside any query runs with every piece masked.
  // Fan-out joins (ParallelFor, TaskGraph::Run) complete before the scope
  // and token die; a traced task signals its joiner before its context
  // detaches and flushes, so the session waits for the detach before it is
  // read or destroyed.
  task = QueryContext::Capture().Wrap(std::move(task));
  // Fault seam: a hit degrades this submission to inline execution on the
  // submitting thread — a benign perturbation that reorders completion and
  // removes asynchrony, proving no caller depends on tasks actually running
  // elsewhere (results must stay bit-identical).
  if (FaultHit(FaultSite::kTaskSubmit)) {
    task();
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Worker threads push to their own queue (the back, where they also pop:
  // depth-first execution keeps the working set hot); external threads spray
  // round-robin.
  int target;
  if (tls_pool == this && tls_worker_index >= 0) {
    target = tls_worker_index;
  } else {
    target = static_cast<int>(next_queue_.fetch_add(1, std::memory_order_relaxed) %
                              workers_.size());
  }
  {
    MutexLock lock(workers_[static_cast<size_t>(target)]->mu);
    workers_[static_cast<size_t>(target)]->queue.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  // Empty critical section: a worker that evaluated the wait predicate before
  // our increment is either fully asleep (notify reaches it) or still holds
  // wake_mu_ and will re-check the predicate — no lost wakeup either way.
  { MutexLock wake_lock(wake_mu_); }
  wake_cv_.NotifyOne();
}

bool ThreadPool::PopTask(int self_index, std::function<void()>* task) {
  const int n = num_threads();
  // Own queue first (LIFO), then steal round-robin (FIFO).
  if (self_index >= 0) {
    Worker& own = *workers_[static_cast<size_t>(self_index)];
    MutexLock lock(own.mu);
    if (!own.queue.empty()) {
      *task = std::move(own.queue.back());
      own.queue.pop_back();
      return true;
    }
  }
  const int start = self_index >= 0 ? self_index + 1 : 0;
  for (int k = 0; k < n; ++k) {
    Worker& victim = *workers_[static_cast<size_t>((start + k) % n)];
    MutexLock lock(victim.mu);
    if (!victim.queue.empty()) {
      *task = std::move(victim.queue.front());
      victim.queue.pop_front();
      // A steal is one worker taking from another's queue; an external
      // thread helping out (self_index < 0) has no queue to prefer.
      if (self_index >= 0 && (start + k) % n != self_index) {
        steals_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
  }
  return false;
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  const int self = tls_pool == this ? tls_worker_index : -1;
  if (!PopTask(self, &task)) return false;
  queued_.fetch_sub(1, std::memory_order_acquire);
  task();
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ThreadPool::WorkerLoop(int index) {
  tls_pool = this;
  tls_worker_index = index;
  while (true) {
    std::function<void()> task;
    if (PopTask(index, &task)) {
      queued_.fetch_sub(1, std::memory_order_acquire);
      task();
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    MutexLock lock(wake_mu_);
    wake_cv_.Wait(wake_mu_, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

Status ThreadPool::ParallelFor(
    int64_t total, int64_t morsel_rows,
    const std::function<Status(int64_t, int64_t, int)>& fn) {
  if (total <= 0) return Status::OK();
  if (morsel_rows <= 0) morsel_rows = DefaultMorselRows();
  const int64_t num_morsels = (total + morsel_rows - 1) / morsel_rows;
  if (num_morsels == 1) return fn(0, total, 0);

  struct ForState {
    std::atomic<int64_t> cursor{0};
    std::atomic<int> unfinished_helpers{0};
    std::atomic<bool> failed{false};
    Mutex mu;
    Status first_error TQP_GUARDED_BY(mu) = Status::OK();
    CondVar done_cv;
  };
  auto state = std::make_shared<ForState>();

  auto drain = [state, fn, total, morsel_rows, num_morsels](int slot) {
    while (!state->failed.load(std::memory_order_acquire)) {
      // Cancellation poll before claiming each morsel: breaker internals
      // (sort run formation, radix passes, merge passes) all fan out through
      // here, so a cancelled query stops within one morsel everywhere, not
      // just at pipeline step boundaries.
      if (Status st = CheckAmbientCancelled(); !st.ok()) {
        MutexLock lock(state->mu);
        if (state->first_error.ok()) state->first_error = std::move(st);
        state->failed.store(true, std::memory_order_release);
        break;
      }
      const int64_t m = state->cursor.fetch_add(1, std::memory_order_relaxed);
      if (m >= num_morsels) break;
      const int64_t begin = m * morsel_rows;
      const int64_t end = std::min(total, begin + morsel_rows);
      Status st = fn(begin, end, slot);
      if (!st.ok()) {
        MutexLock lock(state->mu);
        if (state->first_error.ok()) state->first_error = std::move(st);
        state->failed.store(true, std::memory_order_release);
      }
    }
  };

  const int helpers = static_cast<int>(
      std::min<int64_t>(num_threads(), num_morsels - 1));
  state->unfinished_helpers.store(helpers, std::memory_order_relaxed);
  for (int h = 0; h < helpers; ++h) {
    // Slot 0 is the caller; helper h owns slot h + 1.
    Submit([state, drain, h] {
      drain(h + 1);
      if (state->unfinished_helpers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        MutexLock lock(state->mu);
        state->done_cv.NotifyAll();
      }
    });
  }
  drain(0);
  // Wait for every helper to exit before returning: `fn` may reference caller
  // stack state. While waiting, keep executing pool tasks — the helpers might
  // be queued behind other work (including other ParallelFors), and running
  // it here is what makes nested waits deadlock-free.
  while (state->unfinished_helpers.load(std::memory_order_acquire) > 0) {
    if (TryRunOneTask()) continue;
    MutexLock lock(state->mu);
    state->done_cv.WaitFor(state->mu, std::chrono::milliseconds(1), [&] {
      return state->unfinished_helpers.load(std::memory_order_acquire) == 0;
    });
  }
  MutexLock lock(state->mu);
  return state->first_error;
}

Status ThreadPool::ParallelFor(int64_t total, int64_t morsel_rows,
                               const std::function<Status(int64_t, int64_t)>& fn) {
  return ParallelFor(total, morsel_rows,
                     [&fn](int64_t b, int64_t e, int) { return fn(b, e); });
}

}  // namespace tqp::runtime
