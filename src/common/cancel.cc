#include "common/cancel.h"

#include <chrono>

#include "common/env.h"

namespace tqp {

namespace {

thread_local CancellationToken* tls_cancel_token = nullptr;

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* CancelReasonName(CancelReason reason) {
  switch (reason) {
    case CancelReason::kNone:
      return "none";
    case CancelReason::kUserCancelled:
      return "user_cancelled";
    case CancelReason::kDeadlineExceeded:
      return "deadline_exceeded";
    case CancelReason::kPreempted:
      return "preempted";
  }
  return "unknown";
}

void CancellationToken::SetDeadlineAfterMs(int64_t ms) {
  SetDeadline(SteadyNowNanos() + ms * 1000000);
}

bool CancellationToken::cancelled() const {
  if (reason_.load(std::memory_order_acquire) != 0) return true;
  int64_t deadline = deadline_nanos_.load(std::memory_order_acquire);
  if (deadline != 0 && SteadyNowNanos() >= deadline) {
    // Latch the expiry so the reason survives and later polls are one load.
    // const_cast is confined here: lazily recording an already-determined
    // fact, not mutating logical state.
    const_cast<CancellationToken*>(this)->RequestCancel(
        CancelReason::kDeadlineExceeded);
    return true;
  }
  return false;
}

Status CancellationToken::CheckCancelled() const {
  if (!cancelled()) return Status::OK();
  switch (reason()) {
    case CancelReason::kDeadlineExceeded:
      return Status::DeadlineExceeded("query deadline exceeded");
    case CancelReason::kPreempted:
      return Status::Cancelled("query preempted under memory pressure");
    case CancelReason::kUserCancelled:
    case CancelReason::kNone:
      break;
  }
  return Status::Cancelled("query cancelled");
}

CancellationToken* CancellationToken::Current() { return tls_cancel_token; }

CancellationToken::Attach::Attach(CancellationToken* token)
    : previous_(tls_cancel_token) {
  tls_cancel_token = token;
}

CancellationToken::Attach::~Attach() { tls_cancel_token = previous_; }

int64_t ResolveDeadlineMs(int64_t option_deadline_ms) {
  if (option_deadline_ms > 0) return option_deadline_ms;
  if (option_deadline_ms < 0) return 0;
  static const int64_t env_default =
      EnvInt64OrDefault("TQP_QUERY_TIMEOUT_MS", 0, 0, int64_t{1} << 40);
  return env_default;
}

}  // namespace tqp
