// Golden fixture: must trigger exactly the `submit-propagation` rule.
// This context's Attach installs the query-memory scope and the cancellation
// token but forgets the trace context, so tasks lose their trace session on
// another worker.

namespace tqp::runtime {

struct QueryContext {
  BufferPool::QueryScope* scope = nullptr;
  CancellationToken* token = nullptr;
  int priority = 1;

  static QueryContext Capture();

  class Attach {
   public:
    explicit Attach(const QueryContext& context);

   private:
    CancellationToken::Attach token_;
    BufferPool::QueryScope::Attach scope_;
  };
};

}  // namespace tqp::runtime
