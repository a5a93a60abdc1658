#ifndef TQP_RUNTIME_STEP_SCHEDULER_H_
#define TQP_RUNTIME_STEP_SCHEDULER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>

#include "common/sync.h"
#include "runtime/thread_pool.h"

namespace tqp::runtime {

/// \brief Priority-aware dispatch of fine-grained execution steps onto one
/// shared ThreadPool.
///
/// The work-stealing pool itself is priority-blind: once a task is in a
/// worker deque its position is fixed. The StepScheduler therefore keeps
/// *ready* steps in per-priority FIFO queues of its own and feeds the pool
/// with at most `max_inflight` small "pump" tasks; each pump pops the
/// highest-priority ready step, runs it, and re-submits itself while work
/// remains. Priority selection thus happens at pop time — when the pool is
/// saturated, a queued step of a high-priority query always starts before a
/// queued step of a low-priority one, regardless of submission order.
///
/// One pump runs exactly one step per pool task. That keeps cooperative
/// waiters (TaskGraph::Run, ParallelFor) from being captured by an unbounded
/// drain loop when they help out via TryRunOneTask, and re-applies priority
/// selection between every two steps.
///
/// This is the mechanism behind cross-query step interleaving: every query
/// admitted by a QueryScheduler tags its execution-DAG steps with the query's
/// QueryPriority (the priority of its ambient QueryContext), and all queries'
/// steps merge into these queues instead of each query running as one opaque
/// pool task. Each step runs under its submitter's QueryContext.
class StepScheduler {
 public:
  /// Mirrors runtime::QueryPriority (kLow=0 < kNormal=1 < kHigh=2) without
  /// depending on the session layer.
  static constexpr int kNumPriorities = 3;

  /// `max_inflight <= 0` selects pool->num_threads(): enough pumps to keep
  /// every worker busy, few enough that ready queues stay the point of
  /// priority choice.
  explicit StepScheduler(ThreadPool* pool, int max_inflight = 0);

  /// Drains: waits until every dispatched pump has retired (pumps reference
  /// this object). Runs pool tasks while waiting, so destruction from a pool
  /// worker cannot self-deadlock.
  ~StepScheduler();

  StepScheduler(const StepScheduler&) = delete;
  StepScheduler& operator=(const StepScheduler&) = delete;

  /// \brief Enqueues one step. Among steps that are ready but not yet
  /// running, higher `priority` always starts first (FIFO within a class).
  /// Never blocks. `priority` is clamped to [0, kNumPriorities).
  void Submit(std::function<void()> step, int priority);

  ThreadPool* pool() const { return pool_; }

  /// \brief Steps submitted per priority class since construction.
  std::array<int64_t, kNumPriorities> submitted() const;
  /// \brief Steps that finished executing since construction.
  int64_t executed() const;

 private:
  /// Pops the highest-priority ready step.
  bool PopReadyLocked(std::function<void()>* step) TQP_REQUIRES(mu_);
  /// Hands one pump task to the pool, under an empty query context.
  void SpawnPump();
  /// One pump: run at most one step, then re-submit while work remains.
  void PumpOne();

  ThreadPool* pool_;
  const int max_inflight_;
  mutable Mutex mu_;
  std::array<std::deque<std::function<void()>>, kNumPriorities> ready_
      TQP_GUARDED_BY(mu_);
  size_t ready_total_ TQP_GUARDED_BY(mu_) = 0;
  /// Pump tasks handed to the pool and not yet retired.
  int inflight_ TQP_GUARDED_BY(mu_) = 0;
  std::array<int64_t, kNumPriorities> submitted_ TQP_GUARDED_BY(mu_){};
  int64_t executed_ TQP_GUARDED_BY(mu_) = 0;
};

}  // namespace tqp::runtime

#endif  // TQP_RUNTIME_STEP_SCHEDULER_H_
