#ifndef TQP_RUNTIME_QUERY_CONTEXT_H_
#define TQP_RUNTIME_QUERY_CONTEXT_H_

#include <functional>

#include "common/cancel.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"

namespace tqp::runtime {

/// \brief The ambient state one query's work carries onto whichever thread
/// runs it: the query-memory scope its allocations charge, the cancellation
/// token its morsel and step loops poll, the trace context its spans record
/// into, and the priority its execution steps are dispatched at.
///
/// The four pieces travel together as one value. The QueryScheduler attaches
/// a query's context around its execution; ThreadPool::Submit and
/// StepScheduler::Submit capture the submitter's context and Wrap the task
/// in it, so a query's fan-out and step DAG see the query's context on any
/// worker. The per-piece Current() accessors (QueryScope::Current,
/// CancellationToken::Current, obs::CaptureTraceContext) stay the read path
/// for allocations, cancellation polls and spans.
///
/// A default-constructed context is empty: attaching it masks all four
/// pieces (no scope, no token, no trace session, normal priority).
struct QueryContext {
  BufferPool::QueryScope* scope = nullptr;
  CancellationToken* token = nullptr;
  obs::TraceContextState trace;
  /// A QueryPriority value (kLow=0 < kNormal=1 < kHigh=2).
  int priority = 1;

  /// \brief The calling thread's ambient context.
  static QueryContext Capture();

  /// \brief `task` run under this context: the wrapper attaches the context
  /// (an empty one masks whatever the running thread has attached) and
  /// detaches it when the task returns. The captured scope and token must
  /// outlive the task; executors join their fan-out before they go.
  std::function<void()> Wrap(std::function<void()> task) const;

  /// \brief RAII guard installing a context as the calling thread's ambient
  /// one, restoring the previous context on destruction. The trace context
  /// attaches outermost, so its buffer flush on detach comes after every
  /// other piece is restored.
  class Attach {
   public:
    explicit Attach(const QueryContext& context);
    ~Attach();
    Attach(const Attach&) = delete;
    Attach& operator=(const Attach&) = delete;

   private:
    obs::TraceContext trace_;
    CancellationToken::Attach token_;
    BufferPool::QueryScope::Attach scope_;
    int prev_priority_;
  };
};

}  // namespace tqp::runtime

#endif  // TQP_RUNTIME_QUERY_CONTEXT_H_
