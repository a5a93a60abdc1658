#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>

namespace tqp::obs {

namespace {

/// Thread-local trace state: the ambient context plus the pending event
/// buffer. The buffer only ever holds events for `buffer_session`, and it is
/// non-empty only while a TraceContext for that session is attached somewhere
/// up the thread's stack (every detach flushes), so the session pointer can
/// never dangle: contexts require the session to outlive them.
struct TraceTls {
  TraceContextState ctx;
  TraceSpan* innermost = nullptr;  // the thread's most recently opened span
  TraceSession* buffer_session = nullptr;
  std::vector<TraceEvent> buffer;
};

thread_local TraceTls tls_trace;

/// Flush when a thread's buffer reaches this many events (amortizes the
/// session lock to one acquisition per kFlushThreshold spans).
constexpr size_t kFlushThreshold = 256;

std::atomic<uint32_t> g_next_thread_id{1};

void FlushTlsBuffer() {
  TraceTls& t = tls_trace;
  if (t.buffer_session != nullptr && !t.buffer.empty()) {
    t.buffer_session->AppendBatch(&t.buffer);
  }
  t.buffer_session = nullptr;
}

/// Appends `event` to the thread's buffer for `session`, flushing first when
/// the buffer belongs to a different session or is full.
void BufferEvent(TraceSession* session, TraceEvent event) {
  TraceTls& t = tls_trace;
  if (t.buffer_session != session) FlushTlsBuffer();
  t.buffer_session = session;
  t.buffer.push_back(std::move(event));
  if (t.buffer.size() >= kFlushThreshold) FlushTlsBuffer();
}

/// JSON string escaping for names/details (quotes, backslashes, control
/// characters).
void AppendEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

int64_t TraceNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t TraceThreadId() {
  thread_local const uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceSession::~TraceSession() { AwaitPropagatedDetach(); }

TraceSession* TraceSession::Current() { return tls_trace.ctx.session; }

void TraceSession::AwaitPropagatedDetach() const {
  while (propagated_.load() != 0) {
    std::this_thread::yield();
  }
}

void TraceSession::Append(TraceEvent event) {
  if (event.thread_id == 0) event.thread_id = TraceThreadId();
  MutexLock lock(mu_);
  events_.push_back(std::move(event));
}

void TraceSession::AppendBatch(std::vector<TraceEvent>* events) {
  MutexLock lock(mu_);
  events_.insert(events_.end(), std::make_move_iterator(events->begin()),
                 std::make_move_iterator(events->end()));
  events->clear();
}

void TraceSession::Clear() {
  MutexLock lock(mu_);
  events_.clear();
}

std::vector<TraceEvent> TraceSession::events() const {
  AwaitPropagatedDetach();
  MutexLock lock(mu_);
  return events_;
}

size_t TraceSession::num_events() const {
  AwaitPropagatedDetach();
  MutexLock lock(mu_);
  return events_.size();
}

std::string TraceSession::ToChromeTrace(const std::string& process_name) const {
  std::vector<TraceEvent> events = this->events();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_nanos < b.ts_nanos;
            });
  // Rebase to the earliest event so timestamps are small and positive.
  const int64_t base = events.empty() ? 0 : events.front().ts_nanos;

  std::string out;
  out.reserve(events.size() * 160 + 256);
  out += "{\"traceEvents\":[";
  // Thread-name metadata: one Chrome tid per recording thread.
  std::vector<uint32_t> tids;
  for (const TraceEvent& e : events) {
    if (std::find(tids.begin(), tids.end(), e.thread_id) == tids.end()) {
      tids.push_back(e.thread_id);
    }
  }
  std::sort(tids.begin(), tids.end());
  bool first = true;
  char buf[160];
  for (uint32_t tid : tids) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"name\":\"thread-%u\"}}",
                  tid, tid);
    out += buf;
  }
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(&out, e.name);
    if (!e.detail.empty()) {
      out += " [";
      AppendEscaped(&out, e.detail.c_str());
      out += "]";
    }
    out += "\",\"cat\":\"";
    AppendEscaped(&out, e.category);
    // Microsecond timestamps with sub-microsecond precision: short morsel
    // spans would otherwise collapse to zero-width slices.
    const double ts_us = static_cast<double>(e.ts_nanos - base) / 1e3;
    if (e.phase == TraceEvent::Phase::kSpan) {
      const double dur_us =
          std::max(0.001, static_cast<double>(e.dur_nanos) / 1e3);
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                    "\"tid\":%u",
                    ts_us, dur_us, e.thread_id);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,"
                    "\"tid\":%u",
                    ts_us, e.thread_id);
    }
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\"args\":{\"span\":%" PRIu64 ",\"parent\":%" PRIu64
                  ",\"query\":%" PRIu64,
                  e.span_id, e.parent_id, e.query_id);
    out += buf;
    for (int i = 0; i < e.num_args; ++i) {
      out += ",\"";
      AppendEscaped(&out, e.arg_names[i]);
      std::snprintf(buf, sizeof(buf), "\":%lld",
                    static_cast<long long>(e.arg_values[i]));
      out += buf;
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"process\":\"";
  AppendEscaped(&out, process_name.c_str());
  out += "\"}}";
  return out;
}

TraceContextState CaptureTraceContext() { return tls_trace.ctx; }

TraceContext::TraceContext(const TraceContextState& state)
    : prev_(tls_trace.ctx), propagated_(state.session) {
  if (propagated_ != nullptr) {
    propagated_->propagated_.fetch_add(1);
  }
  tls_trace.ctx = state;
}

TraceContext::TraceContext(TraceSession* session, uint64_t query_id)
    : prev_(tls_trace.ctx) {
  tls_trace.ctx = TraceContextState{session, query_id, 0};
}

TraceContext::~TraceContext() {
  // Flush before restoring: the detaching context may be the last holder of
  // this session on the thread.
  FlushTlsBuffer();
  tls_trace.ctx = prev_;
  // Last touch of the session: a reader waiting on the count may destroy it
  // as soon as this lands.
  if (propagated_ != nullptr) {
    propagated_->propagated_.fetch_sub(1);
  }
}

TraceSpan::TraceSpan(const char* category, const char* name)
    : session_(tls_trace.ctx.session) {
  if (session_ == nullptr) return;  // tracing off: one tls read, one branch
  event_.category = category;
  event_.name = name;
  event_.span_id = session_->NextSpanId();
  event_.parent_id = tls_trace.ctx.parent_span;
  event_.query_id = tls_trace.ctx.query_id;
  event_.thread_id = TraceThreadId();
  saved_parent_ = tls_trace.ctx.parent_span;
  tls_trace.ctx.parent_span = event_.span_id;
  saved_innermost_ = tls_trace.innermost;
  tls_trace.innermost = this;
  event_.ts_nanos = TraceNowNanos();
}

TraceSpan::~TraceSpan() {
  if (session_ == nullptr) return;
  event_.dur_nanos = TraceNowNanos() - event_.ts_nanos;
  tls_trace.ctx.parent_span = saved_parent_;
  tls_trace.innermost = saved_innermost_;
  BufferEvent(session_, std::move(event_));
}

TraceSpan* TraceSpan::Current() {
  TraceSpan* span = tls_trace.innermost;
  // A context attached inside the span (a propagated task run on this
  // thread) has its own parent span, and must not see this one.
  const bool open = span != nullptr && span->session_ == tls_trace.ctx.session &&
                    span->event_.span_id == tls_trace.ctx.parent_span;
  return open ? span : nullptr;
}

void TraceSpan::AddArg(const char* name, int64_t value) {
  if (session_ == nullptr) return;
  event_.AddArg(name, value);
}

void TraceSpan::SetDetail(std::string detail) {
  if (session_ == nullptr) return;
  event_.detail = std::move(detail);
}

void TraceInstant(const char* category, const char* name, const char* arg_name,
                  int64_t arg_value) {
  TraceSession* session = tls_trace.ctx.session;
  if (session == nullptr) return;
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = category;
  e.name = name;
  e.ts_nanos = TraceNowNanos();
  e.parent_id = tls_trace.ctx.parent_span;
  e.query_id = tls_trace.ctx.query_id;
  e.thread_id = TraceThreadId();
  if (arg_name != nullptr) e.AddArg(arg_name, arg_value);
  BufferEvent(session, std::move(e));
}

void TraceSpanWithTimes(const char* category, const char* name,
                        int64_t ts_nanos, int64_t dur_nanos) {
  TraceSession* session = tls_trace.ctx.session;
  if (session == nullptr) return;
  TraceEvent e;
  e.category = category;
  e.name = name;
  e.ts_nanos = ts_nanos;
  e.dur_nanos = std::max<int64_t>(0, dur_nanos);
  e.span_id = session->NextSpanId();
  e.parent_id = tls_trace.ctx.parent_span;
  e.query_id = tls_trace.ctx.query_id;
  e.thread_id = TraceThreadId();
  BufferEvent(session, std::move(e));
}

}  // namespace tqp::obs
