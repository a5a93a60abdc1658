// Golden fixture: must trigger exactly the `submit-propagation` rule.
// This Submit wraps its task by hand instead of through
// QueryContext::Capture().Wrap(...), so its copy of the propagation can
// drift from the other submission path.

namespace tqp::runtime {

void ThreadPool::Submit(std::function<void()> task) {
  if (auto* scope = BufferPool::QueryScope::Current(); scope != nullptr) {
    task = [scope, inner = std::move(task)] {
      BufferPool::QueryScope::Attach attach(scope);
      inner();
    };
  }
  if (auto* token = CancellationToken::Current(); token != nullptr) {
    task = [token, inner = std::move(task)] {
      CancellationToken::Attach attach(token);
      inner();
    };
  }
  Enqueue(std::move(task));
}

}  // namespace tqp::runtime
