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

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace gs::telemetry {

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

/// Bounded log of completed spans (oldest evicted first), written without
/// a lock any two request threads share.
///
/// Each writer thread records into the open chunk of its own shard (picked
/// by thread ordinal, as the sharded metrics are), under that shard's
/// mutex, which no other writer takes unless the ordinals of two threads
/// collide modulo kMetricShards. A full chunk is sealed into the log's
/// shared list: one lock round trip per chunk, not per span. Sealing
/// evicts every sealed chunk whose newest span already has `capacity`
/// newer spans retained, so the newest `capacity` spans always survive and
/// retention stays within a few chunks per writing thread of `capacity`.
/// A slot keeps the span's `name`/`layer` pointers, not copies; the
/// readers (snapshot, spans_for, size) merge all chunks in close order.
/// Chunks belong to the log, so spans of exited threads stay readable.
class TraceLog {
 public:
  explicit TraceLog(std::size_t capacity = 4096);
  ~TraceLog();
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Records a span built by hand. Its name and layer are interned in the
  /// log (each distinct string is kept once, for the log's lifetime).
  void record(SpanRecord span);

  /// The newest `capacity` spans, oldest first in close order.
  std::vector<SpanRecord> snapshot() const;
  /// Those of the newest `capacity` spans that belong to one trace, oldest
  /// first.
  std::vector<SpanRecord> spans_for(std::uint64_t trace_id) const;
  std::size_t size() const;
  void clear();

  /// Process-wide log the built-in instrumentation records into.
  static TraceLog& global();

 private:
  friend class SpanScope;

  /// One retained span: 64 bytes, no allocation.
  struct Slot {
    std::uint64_t trace_id;
    std::uint64_t span_id;
    std::uint64_t parent_span_id;
    const char* name;
    const char* layer;
    std::int64_t start_us;
    std::int64_t duration_us;
    std::int64_t close_ns;  // steady clock; the merge order
  };
  struct Chunk;
  struct alignas(64) Shard {
    std::mutex mu;
    std::unique_ptr<Chunk> open;  // guarded by mu
  };

  void record_closed(const SpanScope& span, std::int64_t duration_us,
                     std::int64_t close_ns);
  void record_slot(const Slot& slot);
  /// A reset chunk: the spare, else a new one. Needs mu_.
  std::unique_ptr<Chunk> take_chunk_locked();
  /// Moves `shard`'s full open chunk to the sealed list, evicts what the
  /// newest `capacity` spans no longer need, and opens a fresh chunk.
  void seal(Shard& shard);
  /// Every retained slot, oldest first in close order, trimmed to the
  /// newest `capacity`. Takes every shard lock, then mu_.
  std::vector<Slot> merged() const;
  /// Every shard's lock, in shard order (the readers' lock order: shards,
  /// then mu_; a writer holds at most its own shard before mu_).
  std::array<std::unique_lock<std::mutex>, kMetricShards> lock_shards() const;
  static SpanRecord to_record(const Slot& slot);

  const std::size_t capacity_;
  const std::size_t chunk_slots_;
  mutable std::array<Shard, kMetricShards> shards_;
  mutable std::mutex mu_;          // sealed_, spare_, interned_
  std::vector<std::unique_ptr<Chunk>> sealed_;  // in sealing order
  std::unique_ptr<Chunk> spare_;  // one evicted chunk, kept for reuse
  std::set<std::string> interned_;  // record()'s names and layers
};

/// Steady-clock microseconds: the time base of spans and events.
std::int64_t steady_now_us();
/// The same clock in nanoseconds.
std::int64_t steady_now_ns();

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
/// `layer` are string literals (or otherwise outlive the log): the scope
/// and the log keep the pointers, and only a reader copies the text.
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
