// Per-destination reliable delivery.
//
// The delivery half of the reliability layer: wsn and wse route Notify
// traffic through one of these instead of calling the sink transport
// directly. Delivery is inline: each submit runs one call sequence on the
// publishing thread (already retried by the caller, typically a
// RetryingCaller) — the fire-and-forget shape of both 2005 prototypes. Each
// destination (a subscriber's sink address) keeps a failure streak; one
// that fails `evict_after_consecutive_failures` sequences in a row is
// evicted: further submits are rejected cheaply and dead-lettered, and the
// eviction counter increments. Only such destinations are tracked: a
// successful delivery forgets its destination's streak.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "net/virtual_network.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"

namespace gs::net {

class DeliveryQueue {
 public:
  struct Config {
    /// Transport for deliveries; wrap in a RetryingCaller for retries.
    SoapCaller* caller = nullptr;
    /// Consecutive failed call sequences before a destination is evicted.
    /// 0 = never evict.
    int evict_after_consecutive_failures = 0;
    /// Telemetry hooks (all optional). `delivered`/`failures`/`deliver_us`
    /// count individual call sequences; `dead_letters` tallies every message
    /// that will never be delivered (failed, or rejected after eviction);
    /// `evictions` counts destinations evicted.
    telemetry::Counter* delivered = nullptr;
    telemetry::Counter* failures = nullptr;
    telemetry::Histogram* deliver_us = nullptr;
    telemetry::Counter* evictions = nullptr;
    telemetry::Counter* dead_letters = nullptr;
    /// Structured event sink for evictions and dead-letter drops (optional);
    /// events are tagged with `component` ("wsn.delivery", "wse.delivery").
    telemetry::EventLog* events = nullptr;
    std::string component = "delivery";
  };

  enum class Submit {
    kDelivered,  // the call sequence succeeded
    kRejected,   // the call sequence failed, or the destination is evicted
  };

  explicit DeliveryQueue(Config config);

  DeliveryQueue(const DeliveryQueue&) = delete;
  DeliveryQueue& operator=(const DeliveryQueue&) = delete;

  /// Delivers one message to `destination`, which is also the address
  /// passed to the caller, on the calling thread.
  Submit submit(const std::string& destination, const soap::Envelope& envelope);

  bool evicted(const std::string& destination) const;
  /// Forgets a destination's failure history and eviction — the
  /// re-subscribe path.
  void reinstate(const std::string& destination);

  std::uint64_t dead_lettered() const;
  /// Destinations with a failure streak or an eviction on record.
  std::size_t routes() const;

 private:
  struct Route {
    int consecutive_failures = 0;
    bool evicted = false;
  };

  /// One call sequence; returns success. Never throws.
  bool deliver(const std::string& destination, const soap::Envelope& envelope);
  /// Counts one undeliverable message. Caller holds mu_.
  void dead_letter_locked();
  // Structured-event emitters; call outside mu_ (EventLog has its own lock,
  // and attrs formatting shouldn't extend the queue's critical sections).
  void dead_letter_event(const std::string& destination, const char* reason);
  void eviction_event(const std::string& destination);

  Config config_;
  mutable std::mutex mu_;
  std::map<std::string, Route> routes_;
  std::uint64_t dead_lettered_ = 0;
};

}  // namespace gs::net
