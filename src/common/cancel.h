#ifndef TQP_COMMON_CANCEL_H_
#define TQP_COMMON_CANCEL_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace tqp {

/// \brief Why a query was asked to stop. Doubles as the structured
/// termination reason reported in `QueryOutcome`.
enum class CancelReason : int {
  kNone = 0,
  /// Explicit user request (shell \cancel, SIGINT, QueryScheduler::Cancel).
  kUserCancelled = 1,
  /// The per-query deadline (ExecOptions::deadline_ms / TQP_QUERY_TIMEOUT_MS)
  /// expired, either while queued or mid-execution.
  kDeadlineExceeded = 2,
  /// A kLow-priority query was preempted to relieve memory/admission
  /// pressure (QueryScheduler::PreemptLowPriority).
  kPreempted = 3,
};

/// \brief Returns a static name for a reason ("user_cancelled").
const char* CancelReasonName(CancelReason reason);

/// \brief Per-query cooperative cancellation flag plus optional deadline.
///
/// One token is created per query and carried through the scheduler, thread
/// pool, step scheduler, and morsel loops as one piece of the query's
/// `runtime::QueryContext`: an ambient thread-local installed with the RAII
/// `Attach` guard and re-attached inside every task the query submits.
/// Execution code polls `CheckCancelled()` at morsel and step boundaries;
/// a non-OK result unwinds through the normal `Status` machinery, so every
/// cleanup path (spill-record drop, chunk release, scope teardown) that
/// already runs on error runs on cancellation too.
///
/// `RequestCancel` is lock-free and allocation-free — a single relaxed-ish
/// atomic store of the reason — so it is safe to call from a signal handler
/// (the shell's SIGINT path) and from any thread while the query is running.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// \brief Arms the deadline: the token reports kDeadlineExceeded once the
  /// process steady clock passes `deadline_nanos`. Pass the absolute steady
  /// time, not a duration. A zero value (the default) means no deadline.
  void SetDeadline(int64_t deadline_nanos) {
    deadline_nanos_.store(deadline_nanos, std::memory_order_release);
  }

  /// \brief Convenience: arms the deadline `ms` milliseconds from now.
  void SetDeadlineAfterMs(int64_t ms);

  /// \brief Requests cooperative cancellation. Idempotent: the first reason
  /// wins, later calls are no-ops. Async-signal-safe (one atomic CAS, no
  /// locks, no allocation).
  void RequestCancel(CancelReason reason) {
    int expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire);
  }

  /// \brief True once cancellation was requested or the deadline passed.
  /// Lazily latches an expired deadline into the reason slot so later calls
  /// are a single atomic load.
  bool cancelled() const;

  /// \brief The latched termination reason (kNone while still running).
  CancelReason reason() const {
    return static_cast<CancelReason>(reason_.load(std::memory_order_acquire));
  }

  /// \brief OK while the query may keep running; Status::Cancelled or
  /// Status::DeadlineExceeded once it must stop. This is the poll execution
  /// code calls at morsel/step boundaries.
  Status CheckCancelled() const;

  /// \brief The token ambient on this thread, or nullptr. Mirrors
  /// BufferPool::QueryScope::Current().
  static CancellationToken* Current();

  /// \brief RAII guard installing `token` as this thread's ambient token
  /// (nullptr masks any outer token, e.g. in scheduler pump loops).
  class Attach {
   public:
    explicit Attach(CancellationToken* token);
    ~Attach();
    Attach(const Attach&) = delete;
    Attach& operator=(const Attach&) = delete;

   private:
    CancellationToken* previous_;
  };

 private:
  std::atomic<int> reason_{0};
  mutable std::atomic<int64_t> deadline_nanos_{0};
};

/// \brief Polls the ambient token; OK when none is attached. The one-liner
/// for morsel loops: `TQP_RETURN_NOT_OK(CheckAmbientCancelled());`.
inline Status CheckAmbientCancelled() {
  CancellationToken* token = CancellationToken::Current();
  if (token == nullptr) return Status::OK();
  return token->CheckCancelled();
}

/// \brief Effective deadline for an ExecOptions/CompileOptions `deadline_ms`
/// field: positive values are explicit, 0 defers to the TQP_QUERY_TIMEOUT_MS
/// env default, negative means explicitly none. Returns 0 for "no deadline".
int64_t ResolveDeadlineMs(int64_t option_deadline_ms);

}  // namespace tqp

#endif  // TQP_COMMON_CANCEL_H_
