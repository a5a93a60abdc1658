#include "runtime/step_scheduler.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/cancel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"

namespace tqp::runtime {

namespace {

// Ambient priority of the query whose execution the current thread is
// driving. Set by StepScheduler::ScopedPriority around a query's run; read
// once per TaskGraph submission.
thread_local int tls_step_priority = 1;  // QueryPriority::kNormal

}  // namespace

StepScheduler::StepScheduler(ThreadPool* pool, int max_inflight)
    : pool_(pool),
      max_inflight_(max_inflight > 0 ? max_inflight
                                     : std::max(1, pool->num_threads())) {}

StepScheduler::~StepScheduler() {
  while (true) {
    {
      MutexLock lock(mu_);
      if (inflight_ == 0 && ready_total_ == 0) return;
    }
    if (pool_->TryRunOneTask()) continue;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void StepScheduler::Submit(std::function<void()> step, int priority) {
  priority = std::clamp(priority, 0, kNumPriorities - 1);
  // Steps of different queries share the pump tasks, so each step carries
  // its own query-memory scope (the submitter's ambient one). A null scope
  // needs no wrapper: PumpOne masks the pump's inherited scope before any
  // step runs, so unwrapped steps execute scope-less already.
  if (auto* scope = BufferPool::QueryScope::Current(); scope != nullptr) {
    step = [scope, inner = std::move(step)] {
      BufferPool::QueryScope::Attach attach(scope);
      inner();
    };
  }
  // Per-step cancellation-token propagation, same rules as the scope above:
  // the token rides with the step, and PumpOne masks the pump's inherited
  // token so steps of other queries never observe it.
  if (auto* token = CancellationToken::Current(); token != nullptr) {
    step = [token, inner = std::move(step)] {
      CancellationToken::Attach attach(token);
      inner();
    };
  }
  // Same per-step ambient propagation for the trace context: a traced
  // query's steps record into its session (parented to the submitting span)
  // no matter which pump runs them, and untraced steps run context-less
  // because PumpOne masks the pump's own inherited context.
  if (const obs::TraceContextState trace = obs::CaptureTraceContext();
      trace.session != nullptr) {
    step = [trace, inner = std::move(step)] {
      obs::TraceContext ctx(trace);
      inner();
    };
  }
  bool spawn = false;
  {
    MutexLock lock(mu_);
    ready_[static_cast<size_t>(priority)].push_back(std::move(step));
    ++ready_total_;
    ++submitted_[static_cast<size_t>(priority)];
    // Process-wide mirror (all StepSchedulers sum into one counter).
    static obs::Counter* submitted_metric =
        obs::MetricsRegistry::Global()->GetCounter(
            "tqp_steps_submitted_total",
            "Execution-DAG steps submitted to priority-aware step dispatch");
    submitted_metric->Add(1);
    if (inflight_ < max_inflight_) {
      ++inflight_;
      spawn = true;
    }
  }
  if (spawn) {
    // The pump outlives this step's query (it drains the shared ready
    // queue), so it must not inherit — and count itself into — the query's
    // trace session; the step above already carries that context.
    obs::TraceContext trace_mask(nullptr, 0);
    pool_->Submit([this] { PumpOne(); });
  }
}

bool StepScheduler::PopReadyLocked(std::function<void()>* step) {
  for (int p = kNumPriorities - 1; p >= 0; --p) {
    auto& q = ready_[static_cast<size_t>(p)];
    if (q.empty()) continue;
    *step = std::move(q.front());
    q.pop_front();
    --ready_total_;
    return true;
  }
  return false;
}

void StepScheduler::PumpOne() {
  // A pump task may have been submitted while some query's scope was
  // ambient; mask it — every popped step re-attaches its own scope, and the
  // pump's re-submission below must not capture a scope that could be gone
  // by the time the chained pump runs.
  BufferPool::QueryScope::Attach mask(nullptr);
  // Mask the inherited cancellation token too: a pump chain serves many
  // queries, and one query's cancellation must not leak into another's step.
  CancellationToken::Attach token_mask(nullptr);
  // Mask the inherited trace context for the same lifetime reason: a pump
  // chain outlives the query that spawned it (it drains the shared ready
  // queue), so an untraced step popped later must not record into — and the
  // chained pump must not re-capture — a session that may already be gone.
  obs::TraceContext trace_mask(nullptr, 0);
  std::function<void()> step;
  {
    MutexLock lock(mu_);
    if (!PopReadyLocked(&step)) {
      --inflight_;
      return;
    }
  }
  step();
  static obs::Counter* executed_metric =
      obs::MetricsRegistry::Global()->GetCounter(
          "tqp_steps_executed_total",
          "Execution-DAG steps run by step-scheduler pumps");
  executed_metric->Add(1);
  bool more;
  {
    MutexLock lock(mu_);
    ++executed_;
    more = ready_total_ > 0;
    if (!more) --inflight_;
  }
  // Re-submission and Submit's spawn check are both under mu_, so whichever
  // observes the other's state second keeps exactly one pump alive per
  // pending step (no lost wakeups).
  if (more) pool_->Submit([this] { PumpOne(); });
}

std::array<int64_t, StepScheduler::kNumPriorities> StepScheduler::submitted()
    const {
  MutexLock lock(mu_);
  return submitted_;
}

int64_t StepScheduler::executed() const {
  MutexLock lock(mu_);
  return executed_;
}

StepScheduler::ScopedPriority::ScopedPriority(int priority)
    : prev_(tls_step_priority) {
  tls_step_priority = std::clamp(priority, 0, kNumPriorities - 1);
}

StepScheduler::ScopedPriority::~ScopedPriority() { tls_step_priority = prev_; }

int StepScheduler::CurrentPriority() { return tls_step_priority; }

}  // namespace tqp::runtime
