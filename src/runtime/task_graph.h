#ifndef TQP_RUNTIME_TASK_GRAPH_H_
#define TQP_RUNTIME_TASK_GRAPH_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "runtime/thread_pool.h"

namespace tqp::runtime {

class StepScheduler;

/// \brief A one-shot DAG of Status-returning tasks executed with maximum
/// concurrency on a ThreadPool: a task becomes runnable the moment its last
/// dependency finishes, so independent subtrees (e.g. the two sides of a
/// join, or the per-aggregate branches of a group-by) run concurrently.
///
/// Usage:
///   TaskGraph graph;
///   int scan = graph.AddTask(scan_fn);
///   int agg  = graph.AddTask(agg_fn, {scan});
///   TQP_RETURN_NOT_OK(graph.Run(pool));
///
/// Error semantics: the first failing task cancels all not-yet-started tasks;
/// Run returns that first error after every in-flight task has finished.
/// Run may be called repeatedly (each call re-executes the whole graph).
class TaskGraph {
 public:
  using TaskFn = std::function<Status()>;

  /// \brief Adds a task depending on previously added task ids; returns its
  /// id (dense, starting at 0). Duplicate dependencies are tolerated.
  int AddTask(TaskFn fn, const std::vector<int>& deps = {});

  int num_tasks() const { return static_cast<int>(nodes_.size()); }

  /// \brief Executes the graph. With a null pool (or an empty graph) this
  /// degenerates to serial execution in insertion order, which is always a
  /// valid topological order. The calling thread participates in execution.
  Status Run(ThreadPool* pool);

  /// \brief Executes the graph with ready tasks dispatched through a shared
  /// StepScheduler at the priority of the calling thread's ambient
  /// QueryContext. Tasks of concurrent graphs — e.g. the step DAGs of
  /// different admitted queries — then interleave on one pool in priority
  /// order instead of first-come-first-served.
  Status Run(StepScheduler* steps);

 private:
  Status RunImpl(ThreadPool* pool, StepScheduler* steps);

  struct Node {
    TaskFn fn;
    std::vector<int> deps;        // deduplicated
    std::vector<int> successors;  // tasks waiting on this one
  };
  std::vector<Node> nodes_;
};

}  // namespace tqp::runtime

#endif  // TQP_RUNTIME_TASK_GRAPH_H_
