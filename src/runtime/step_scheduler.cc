#include "runtime/step_scheduler.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "runtime/query_context.h"

namespace tqp::runtime {

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
  // its submitter's query context and runs under it whichever pump pops it.
  step = QueryContext::Capture().Wrap(std::move(step));
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
  if (spawn) SpawnPump();
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

void StepScheduler::SpawnPump() {
  // A pump outlives the step that spawned it (it drains the shared ready
  // queue and serves many queries), so it runs under an empty context: it
  // never counts itself into a query's trace session, and each step it pops
  // attaches its own context.
  QueryContext::Attach none(QueryContext{});
  pool_->Submit([this] { PumpOne(); });
}

void StepScheduler::PumpOne() {
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
  if (more) SpawnPump();
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

}  // namespace tqp::runtime
