#include "runtime/task_graph.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "common/logging.h"
#include "common/sync.h"
#include "runtime/query_context.h"
#include "runtime/step_scheduler.h"

namespace tqp::runtime {

int TaskGraph::AddTask(TaskFn fn, const std::vector<int>& deps) {
  const int id = static_cast<int>(nodes_.size());
  Node node;
  node.fn = std::move(fn);
  node.deps = deps;
  std::sort(node.deps.begin(), node.deps.end());
  node.deps.erase(std::unique(node.deps.begin(), node.deps.end()),
                  node.deps.end());
  for (int d : node.deps) {
    TQP_DCHECK(d >= 0 && d < id);
    nodes_[static_cast<size_t>(d)].successors.push_back(id);
  }
  nodes_.push_back(std::move(node));
  return id;
}

Status TaskGraph::Run(ThreadPool* pool) { return RunImpl(pool, nullptr); }

Status TaskGraph::Run(StepScheduler* steps) {
  return RunImpl(steps == nullptr ? nullptr : steps->pool(), steps);
}

Status TaskGraph::RunImpl(ThreadPool* pool, StepScheduler* steps) {
  const int n = num_tasks();
  if (n == 0) return Status::OK();
  if (pool == nullptr || pool->num_threads() <= 1) {
    // Insertion order is topological (AddTask only accepts earlier ids).
    for (Node& node : nodes_) {
      TQP_RETURN_NOT_OK(node.fn());
    }
    return Status::OK();
  }

  struct RunState {
    explicit RunState(int n) : pending(static_cast<size_t>(n)) {}
    std::vector<std::atomic<int>> pending;  // unfinished deps per task
    std::atomic<int> completed{0};
    std::atomic<bool> failed{false};
    Mutex mu;
    Status first_error TQP_GUARDED_BY(mu) = Status::OK();
    CondVar done_cv;
  };
  auto state = std::make_shared<RunState>(n);
  for (int i = 0; i < n; ++i) {
    state->pending[static_cast<size_t>(i)].store(
        static_cast<int>(nodes_[static_cast<size_t>(i)].deps.size()),
        std::memory_order_relaxed);
  }

  // Steps of one graph all carry the submitting query's ambient priority.
  const int priority = QueryContext::Capture().priority;

  // Submits `id` and, transitively, every successor that its completion
  // unblocks. Declared as a std::function so the lambda can recurse.
  std::function<void(int)> submit = [&submit, state, pool, steps, priority, n,
                                     this](int id) {
    auto task = [&submit, state, this, id, n] {
      const Node& node = nodes_[static_cast<size_t>(id)];
      if (!state->failed.load(std::memory_order_acquire)) {
        Status st = node.fn();
        if (!st.ok()) {
          MutexLock lock(state->mu);
          if (state->first_error.ok()) state->first_error = std::move(st);
          state->failed.store(true, std::memory_order_release);
        }
      }
      // Successor wakeups still run after a failure so `completed` reaches n
      // and Run can return (cancelled tasks just skip their fn).
      for (int succ : node.successors) {
        if (state->pending[static_cast<size_t>(succ)].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          submit(succ);
        }
      }
      // The last completion lets Run return and the graph go away, so the
      // task touches nothing but `state` from here on.
      if (state->completed.fetch_add(1, std::memory_order_acq_rel) == n - 1) {
        MutexLock lock(state->mu);
        state->done_cv.NotifyAll();
      }
    };
    if (steps != nullptr) {
      steps->Submit(std::move(task), priority);
    } else {
      pool->Submit(std::move(task));
    }
  };

  for (int i = 0; i < n; ++i) {
    if (nodes_[static_cast<size_t>(i)].deps.empty()) submit(i);
  }

  // Participate while waiting (required when Run is called from a pool
  // worker; beneficial otherwise).
  while (state->completed.load(std::memory_order_acquire) < n) {
    if (pool->TryRunOneTask()) continue;
    MutexLock lock(state->mu);
    state->done_cv.WaitFor(state->mu, std::chrono::milliseconds(1), [&] {
      return state->completed.load(std::memory_order_acquire) >= n;
    });
  }
  MutexLock lock(state->mu);
  return state->first_error;
}

}  // namespace tqp::runtime
