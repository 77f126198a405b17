// Structured event log: the container's flight recorder.
//
// The reliability layer (PR 2) made failures survivable — retries, queues,
// evictions — but invisible: after a run, the only evidence was counter
// totals. The EventLog keeps the *stories*: every warn-worthy incident
// (retry exhaustion, subscriber eviction, dead-lettered message, injected
// fault, SOAP fault, TLS handshake failure) lands here as a structured,
// leveled event carrying the trace id that was active when it happened, so
// a post-mortem can join events back to the request trees in the TraceLog.
//
// Bounded Ring, shared with TraceLog: oldest evicted first, per-level
// totals survive eviction. Writers are failure paths — rare by construction
// — so one mutex is fine; readers (the telemetry document, bench dumps)
// pay the copy.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/ring.hpp"

namespace gs::telemetry {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* level_name(Level level);

/// One recorded incident.
struct Event {
  /// Monotonic per-log sequence number assigned on log(), starting at 1 —
  /// the cursor consumers resume from (events_since).
  std::uint64_t seq = 0;
  std::int64_t ts_us = 0;      // steady-clock microseconds (same base as spans)
  Level level = Level::kInfo;
  std::string component;       // "net.retry", "wsn.delivery", "container", ...
  std::string message;
  std::uint64_t trace_id = 0;  // trace active on the emitting thread; 0 = none
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Renders one event as a single log line:
///   `12345us WARN [net.retry] message {k=v, ...} trace=abcd`
std::string format_event(const Event& event);

class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 2048);

  /// Records `event` verbatim (caller stamps ts/trace).
  void log(Event event);

  /// Builds and records an event: stamps the current steady-clock time and
  /// the trace id open on this thread.
  void emit(Level level, std::string component, std::string message,
            std::vector<std::pair<std::string, std::string>> attrs = {});

  /// All retained events, oldest first.
  std::vector<Event> snapshot() const;
  /// The most recent `n` events at `min_level` or above, oldest first.
  std::vector<Event> recent(std::size_t n, Level min_level = Level::kDebug) const;
  /// Cursor read: retained events with seq > `seq`, oldest first. A
  /// consumer that resumes from its last seen seq pulls only new events —
  /// and can detect loss, since ring eviction makes the first returned
  /// seq jump past seq + 1.
  std::vector<Event> events_since(std::uint64_t seq) const;
  /// Sequence number of the most recently logged event (0 = none yet).
  std::uint64_t last_seq() const;

  /// Total events emitted at `level` (including ones no longer retained).
  std::uint64_t count(Level level) const;
  /// Events evicted from the ring (emitted minus retained).
  std::uint64_t dropped() const;
  std::size_t size() const;
  /// Steady-clock microseconds at construction — the uptime origin.
  std::int64_t start_us() const noexcept { return start_us_; }

  void clear();

  /// One-line-per-event dump of everything retained.
  std::string to_text() const;

  /// Process-wide log the built-in instrumentation emits into.
  static EventLog& global();

 private:
  mutable std::mutex mu_;
  std::uint64_t last_seq_ = 0;
  Ring<Event> ring_;
  std::int64_t start_us_;
  std::array<std::atomic<std::uint64_t>, 4> level_counts_{};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace gs::telemetry
