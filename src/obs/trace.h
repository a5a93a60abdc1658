#ifndef TQP_OBS_TRACE_H_
#define TQP_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"

namespace tqp::obs {

/// Whole-lifecycle query tracing: one TraceSession collects nested spans from
/// every thread a query (or a set of concurrent queries) touches — admission,
/// queue wait, compile/plan-cache lookup, pipeline steps, morsel batches,
/// buffer-pool spill/fault events — and exports them as Chrome/Perfetto
/// `traceEvents` JSON. It is also the one per-operator profiling path: every
/// executor records an "op" span per executed node, and obs::FoldOpSpans
/// (obs/explain.h) folds them into the Figure-2 breakdown. A session spans
/// executors and queries: attached to a QueryScheduler it shows cross-query
/// step interleaving on the shared StepScheduler/ThreadPool, one track per
/// worker thread.
///
/// Recording is ambient, mirroring BufferPool::QueryScope: a TraceContext
/// attaches a session (plus the current query id and parent span) to the
/// calling thread, ThreadPool::Submit and StepScheduler::Submit propagate the
/// context into every task submitted under it, and instrumentation sites
/// construct TraceSpan RAII objects that no-op when no session is ambient —
/// the disabled path is one thread-local read and a null-pointer branch, so
/// tracing costs nothing when off.
///
/// Events are buffered in thread-local span buffers and flushed into the
/// session (one lock per flush) when a buffer fills or its TraceContext
/// detaches. Every context detach flushes, and executors join their fan-out
/// before returning, so once a traced run completes all of its events are in
/// the session.

/// \brief One recorded event. `name`/`category` are static strings (never
/// freed); `detail` carries optional dynamic text (SQL, op labels).
struct TraceEvent {
  enum class Phase : int8_t { kSpan, kInstant };

  Phase phase = Phase::kSpan;
  const char* category = "";
  const char* name = "";
  std::string detail;      // appended to the name in exports; may be empty
  int64_t ts_nanos = 0;    // steady-clock begin
  int64_t dur_nanos = 0;   // spans only
  uint64_t span_id = 0;    // unique within the session; 0 for instants
  uint64_t parent_id = 0;  // enclosing span (possibly on another thread)
  uint64_t query_id = 0;   // 0 = not tied to one query
  uint32_t thread_id = 0;  // process-wide dense thread index

  static constexpr int kMaxArgs = 3;
  int num_args = 0;
  const char* arg_names[kMaxArgs] = {nullptr, nullptr, nullptr};
  int64_t arg_values[kMaxArgs] = {0, 0, 0};

  void AddArg(const char* arg_name, int64_t value) {
    if (num_args >= kMaxArgs) return;
    arg_names[num_args] = arg_name;
    arg_values[num_args] = value;
    ++num_args;
  }
};

/// \brief Steady-clock nanoseconds (the timebase of every TraceEvent).
int64_t TraceNowNanos();

/// \brief The calling thread's process-wide dense trace thread index
/// (assigned on first use, starting at 1).
uint32_t TraceThreadId();

class TraceSession {
 public:
  TraceSession() = default;
  /// Waits for pool-task contexts still detaching (see events()).
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// \brief The session ambient on the calling thread (null when none) —
  /// the one null check every instrumentation site starts with.
  static TraceSession* Current();

  /// \brief Fresh query id for tagging one query's events (starts at 1).
  uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// \brief Fresh span id (starts at 1; 0 means "no span").
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// \brief Appends one event directly, under the session lock. Used for
  /// events recorded outside any ambient context (admission instants from
  /// client threads).
  void Append(TraceEvent event);

  /// \brief Moves a thread-local buffer's events into the session.
  void AppendBatch(std::vector<TraceEvent>* events);

  /// \brief Discards every recorded event. Must not race recording —
  /// callers reset between runs, not during one.
  void Clear();

  /// \brief Snapshot of every flushed event (ambient contexts flush on
  /// detach; call after the traced work has joined). A pool task signals its
  /// joiner from inside its body, before its propagated context detaches, so
  /// this first waits for every such context to detach. Must not be called
  /// from inside a pool task traced into this session.
  std::vector<TraceEvent> events() const;

  size_t num_events() const;

  /// \brief chrome://tracing / Perfetto JSON: every span as a "ph":"X"
  /// complete event (ts/dur in microseconds), instants as "ph":"i", one
  /// Chrome tid per recording thread, span/parent/query ids in args.
  std::string ToChromeTrace(const std::string& process_name = "tqp") const;

 private:
  friend class TraceContext;

  /// Spins until every propagated context has detached and flushed.
  void AwaitPropagatedDetach() const;

  mutable Mutex mu_;
  std::vector<TraceEvent> events_ TQP_GUARDED_BY(mu_);
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> next_query_id_{1};
  /// Propagated (pool-task) contexts attached to this session right now.
  std::atomic<int> propagated_{0};
};

/// \brief The ambient trace state of one thread, as captured for propagation
/// into pool tasks: which session, which query, and which span submitted the
/// task (so a task's spans parent to the span that spawned it, even across
/// threads).
struct TraceContextState {
  TraceSession* session = nullptr;
  uint64_t query_id = 0;
  uint64_t parent_span = 0;
};

/// \brief Captures the calling thread's ambient trace state (cheap; for
/// ThreadPool::Submit / StepScheduler::Submit task wrappers).
TraceContextState CaptureTraceContext();

/// \brief RAII ambient trace context, mirroring QueryScope::Attach. The
/// destructor restores the previous context and flushes the thread's pending
/// event buffer, so a session's events are all flushed once every context
/// attached to it has detached. A context propagated into a pool task counts
/// itself into its session until it detaches, because the task's joiner can
/// wake before that; the session's reads and destructor wait for the count.
class TraceContext {
 public:
  explicit TraceContext(const TraceContextState& state);
  TraceContext(TraceSession* session, uint64_t query_id);
  ~TraceContext();

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  TraceContextState prev_;
  /// The session this context counts itself in (propagated contexts only).
  TraceSession* propagated_ = nullptr;
};

/// \brief RAII span: records a complete event over its lifetime into the
/// ambient session (no-op when none). Spans nest — the constructor makes this
/// span the thread's parent for spans (and propagated tasks) opened inside
/// it. `category` and `name` must be static strings.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool enabled() const { return session_ != nullptr; }
  /// \brief The innermost recording span open on the calling thread under
  /// its ambient context, or null. Lets a kernel annotate the span its
  /// caller opened around it.
  static TraceSpan* Current();
  /// \brief Attaches an integer argument (static name) to the event.
  void AddArg(const char* name, int64_t value);
  /// \brief Attaches dynamic text, appended to the name on export.
  void SetDetail(std::string detail);

 private:
  TraceSession* session_;  // null = disabled, every method no-ops
  TraceEvent event_;
  uint64_t saved_parent_ = 0;
  TraceSpan* saved_innermost_ = nullptr;
};

/// \brief Records an instant event into the ambient session (no-op when
/// none). For point occurrences: admission, spill/fault, shed queries.
void TraceInstant(const char* category, const char* name, const char* arg_name,
                  int64_t arg_value);

/// \brief Records a complete span with explicit timestamps into the ambient
/// session (no-op when none) — for intervals measured before a context
/// existed, e.g. a query's admission-queue wait (enqueue happened on the
/// client thread; the span is recorded at pickup).
void TraceSpanWithTimes(const char* category, const char* name,
                        int64_t ts_nanos, int64_t dur_nanos);

}  // namespace tqp::obs

#endif  // TQP_OBS_TRACE_H_
