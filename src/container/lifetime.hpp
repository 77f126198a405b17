// Lifetime management (the "Lifetime Management" box of paper Figure 1).
//
// WSRF's WS-ResourceLifetime gives resources scheduled termination times
// that services manipulate (the Grid-in-a-Box ReservationService "claim"
// extends them). WS-Transfer has no such concept, so its Grid-in-a-Box
// manages reservation lifetime manually — and leaks when clients forget
// (a finding this repository's tests assert).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <utility>

#include "common/clock.hpp"
#include "telemetry/metrics.hpp"

namespace gs::container {

/// Registry of scheduled destructions. Services register a termination
/// time and an on-destroy callback per resource; the container sweeps on
/// each request (and tests sweep manually with a ManualClock).
///
/// Finite termination times are also kept in a deadline-ordered index, and
/// the earliest of them is cached in an atomic. A sweep with nothing due
/// reads the clock and that atomic and returns without locking, so its
/// cost does not grow with the number of resources; a sweep with work pops
/// only the due entries off the front of the index. kNever entries are
/// never indexed.
class LifetimeManager {
 public:
  using Handle = std::uint64_t;
  static constexpr common::TimeMs kNever =
      std::numeric_limits<common::TimeMs>::max();

  /// A callback that throws during a sweep is counted in
  /// `container.lifetime_failures` of `metrics` (nullptr = the process-wide
  /// registry).
  explicit LifetimeManager(const common::Clock& clock,
                           telemetry::MetricsRegistry* metrics = nullptr);

  /// Schedules destruction at `termination_time` (kNever = only explicit).
  Handle schedule(common::TimeMs termination_time, std::function<void()> on_destroy);

  /// Moves the termination time (the ReservationService "claim" path).
  /// Returns false for an unknown/destroyed handle.
  bool set_termination_time(Handle handle, common::TimeMs termination_time);
  std::optional<common::TimeMs> termination_time(Handle handle) const;

  /// Destroys now: runs the callback and unregisters. False when unknown.
  bool destroy(Handle handle);
  /// Unregisters without running the callback.
  bool cancel(Handle handle);

  /// Destroys every entry whose termination time has passed, running the
  /// callbacks in deadline order (ties by handle) outside the lock. Every
  /// due callback runs: one that throws is logged as a "lifetime" warning
  /// and counted, and the sweep goes on. Returns the number destroyed.
  size_t sweep();

  size_t active() const;
  const common::Clock& clock() const noexcept { return clock_; }

 private:
  struct Entry {
    common::TimeMs termination_time;
    std::function<void()> on_destroy;
  };

  /// Both called with mu_ held. publish_earliest re-publishes the front of
  /// the index; take unindexes and erases an entry, returning its callback.
  void publish_earliest();
  std::function<void()> take(std::map<Handle, Entry>::iterator it);

  const common::Clock& clock_;
  telemetry::Counter& failures_;
  mutable std::mutex mu_;
  std::map<Handle, Entry> entries_;
  /// (termination time, handle) of every entry with a finite time.
  std::set<std::pair<common::TimeMs, Handle>> deadlines_;
  /// deadlines_.begin()->first, or kNever when the index is empty.
  std::atomic<common::TimeMs> earliest_{kNever};
  Handle next_ = 1;
};

/// Strictly parses a client-supplied lifetime field (milliseconds, an
/// optionally-signed decimal integer, nothing else). Throws
/// soap::SoapFault("Sender", ...) on malformed text — client garbage must
/// come back as a fault envelope, never escape as std::invalid_argument
/// from std::stoll (which also silently accepted trailing junk).
/// Callers interpret the value (relative offset vs absolute) and handle
/// their own "infinity"/"infinite" keyword before calling.
common::TimeMs parse_lifetime_ms(const std::string& text);

}  // namespace gs::container
