#include "runtime/query_context.h"

#include <utility>

namespace tqp::runtime {

namespace {

// Ambient priority of the query whose work the current thread is running.
// The other three pieces keep their own thread-locals behind their
// Current() accessors.
thread_local int tls_priority = 1;  // QueryPriority::kNormal

}  // namespace

QueryContext QueryContext::Capture() {
  return QueryContext{BufferPool::QueryScope::Current(),
                      CancellationToken::Current(), obs::CaptureTraceContext(),
                      tls_priority};
}

std::function<void()> QueryContext::Wrap(std::function<void()> task) const {
  return [context = *this, inner = std::move(task)] {
    Attach attach(context);
    inner();
  };
}

QueryContext::Attach::Attach(const QueryContext& context)
    : trace_(context.trace),
      token_(context.token),
      scope_(context.scope),
      prev_priority_(tls_priority) {
  tls_priority = context.priority;
}

QueryContext::Attach::~Attach() { tls_priority = prev_priority_; }

}  // namespace tqp::runtime
