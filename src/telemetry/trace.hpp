// Cross-stack request tracing: trace/span identity, a thread-local span
// stack, and a bounded log of completed spans.
//
// A request entering either stack gets one trace; every layer it crosses
// (client proxy, HTTP receive, container dispatch, security handler,
// storage, notification delivery) opens a SpanScope that nests under the
// caller's span on the same thread. Hops between processes/threads carry
// the context in a SOAP header next to WS-Addressing MessageID/RelatesTo
// (see telemetry/propagation.hpp); the receiving container re-roots its
// provisional spans onto the carried trace with `adopt_remote`.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/ring.hpp"

namespace gs::telemetry {

class Histogram;

/// Identity of the currently-executing span within its trace.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  bool valid() const noexcept { return trace_id != 0; }
};

/// One completed span.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  // 0 = trace root
  std::string name;                  // "http.receive", "container.dispatch", ...
  std::string layer;                 // "client", "net", "container", "storage", "delivery"
  std::int64_t start_us = 0;         // steady-clock microseconds
  std::int64_t duration_us = 0;
};

class SpanScope;

/// Bounded ring buffer of completed spans (oldest evicted first).
class TraceLog {
 public:
  explicit TraceLog(std::size_t capacity = 4096);

  void record(SpanRecord span);

  /// All retained spans, oldest first.
  std::vector<SpanRecord> snapshot() const;
  /// Retained spans of one trace, oldest first.
  std::vector<SpanRecord> spans_for(std::uint64_t trace_id) const;
  std::size_t size() const;
  void clear();

  /// Process-wide log the built-in instrumentation records into.
  static TraceLog& global();

 private:
  friend class SpanScope;

  /// A closing span's record, written into its ring slot in place: once
  /// the ring has wrapped, the slot's strings already have the capacity.
  void record_closed(const SpanScope& span, std::int64_t duration_us);

  mutable std::mutex mu_;
  Ring<SpanRecord> ring_;
};

/// Steady-clock microseconds: the time base of spans and events.
std::int64_t steady_now_us();

/// Fresh nonzero trace/span id, unique in the process: a per-thread
/// sequence tagged with the thread's ordinal and mixed (bijectively) so
/// ids look uncorrelated. Touches no state shared between threads.
std::uint64_t new_trace_id();

/// The innermost open span on this thread, or an invalid context.
TraceContext current_context();

/// RAII span: derives identity from the innermost open span on this thread
/// (or starts a new trace), and records itself into `log` on destruction.
/// A pipeline stage passes its latency `histogram` too: the span's duration
/// is then that stage's sample, so one clock pair times both. `name` and
/// `layer` are string literals (or otherwise outlive the scope): the scope
/// keeps the pointers and copies the text only into the log.
class SpanScope {
 public:
  SpanScope(const char* name, const char* layer,
            TraceLog* log = &TraceLog::global(), Histogram* histogram = nullptr);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  TraceContext context() const noexcept {
    return {trace_id_, span_id_, parent_span_id_};
  }

 private:
  friend void adopt_remote(const TraceContext& remote);
  friend class TraceLog;

  const char* name_;
  const char* layer_;
  TraceLog* log_;
  Histogram* histogram_;
  std::uint64_t trace_id_;
  std::uint64_t span_id_;
  std::uint64_t parent_span_id_;
  std::int64_t start_us_;
  SpanScope* prev_;  // thread-local stack link
};

/// Server side of a hop: re-roots the provisionally-started spans open on
/// this thread onto the remote trace carried in the request header. Walks
/// the open-span stack outward, rewriting trace ids until it reaches a
/// span already in the remote trace; the outermost rewritten span becomes
/// a child of the remote sender span. No-op when the open spans already
/// belong to the remote trace (co-located, same-thread hops) or when no
/// span is open.
void adopt_remote(const TraceContext& remote);

}  // namespace gs::telemetry
