// Client-side circuit breaker: the other half of overload control.
//
// The container's AdmissionHandler answers overload with 503 + Retry-After
// (see container/admission.hpp); without a breaker, every 503 turns into a
// retry schedule and the PR-2 RetryingCaller — built to ride out *lossy*
// routes — becomes an amplifier against a *saturated* server: N clients x
// max_attempts retries multiply the offered load exactly when the server
// asked for less. The breaker is the classic three-state machine, tracked
// per destination authority:
//
//   closed    -> normal operation; `failure_threshold` CONSECUTIVE
//                transport failures (503s, timeouts, drops) trip it open.
//   open      -> calls fail fast with CircuitOpenError, no network I/O,
//                for `open_ms`.
//   half-open -> after the cooldown, up to `half_open_probes` calls are
//                let through; one success closes the circuit, one failure
//                re-opens it for another cooldown.
//
// Metrics: net.breaker_opened (transitions to open), net.breaker_closed
// (recoveries), net.breaker_fast_fails (calls refused while open),
// net.breaker_probes (half-open trial calls), and a net.breaker_open_routes
// gauge — a one-tick threshold objective (telemetry/slo.hpp) on
// net.breaker_opened surfaces collapse through the MonitorProducer from
// the client side too.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/clock.hpp"
#include "net/virtual_network.hpp"
#include "telemetry/metrics.hpp"

namespace gs::net {

/// Thrown on fast-fail while a route's circuit is open. Derives from
/// NetworkError so existing transport-failure handling applies, but
/// RetryingCaller never retries it — that is the point.
class CircuitOpenError : public NetworkError {
 public:
  CircuitOpenError(const std::string& what, common::TimeMs retry_in_ms)
      : NetworkError(what), retry_in_ms_(retry_in_ms) {}
  /// Time until the breaker will allow a half-open probe.
  common::TimeMs retry_in_ms() const noexcept { return retry_in_ms_; }

 private:
  common::TimeMs retry_in_ms_;
};

struct BreakerPolicy {
  int failure_threshold = 5;      // consecutive failures that trip the circuit
  common::TimeMs open_ms = 1000;  // cooldown before half-open probing
  int half_open_probes = 1;       // concurrent trial calls while half-open

  /// A policy that never trips (the historical always-retry shape).
  static BreakerPolicy disabled() { return {.failure_threshold = 0}; }
  bool enabled() const noexcept { return failure_threshold > 0; }
};

/// Per-authority circuit state. Thread-safe; one instance is typically
/// owned by a RetryingCaller and shared across every destination that
/// caller talks to.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(BreakerPolicy policy,
                          const common::Clock* clock =
                              &common::RealClock::instance());

  /// Gate before a call. True = proceed (and, when half-open, a probe slot
  /// is held until record_success/record_failure). False = fail fast; use
  /// retry_in(authority) for the hint.
  bool allow(const std::string& authority);
  void record_success(const std::string& authority);
  void record_failure(const std::string& authority);

  State state(const std::string& authority) const;
  /// Remaining cooldown for an open route; 0 when callable now.
  common::TimeMs retry_in(const std::string& authority) const;

  const BreakerPolicy& policy() const noexcept { return policy_; }

 private:
  struct Route {
    State state = State::kClosed;
    int consecutive_failures = 0;
    int probes_in_flight = 0;
    common::TimeMs opened_at = 0;
  };

  void trip_locked(Route& route, const std::string& authority);

  BreakerPolicy policy_;
  const common::Clock* clock_;
  telemetry::Counter* opened_ = nullptr;
  telemetry::Counter* closed_ = nullptr;
  telemetry::Counter* fast_fails_ = nullptr;
  telemetry::Counter* probes_ = nullptr;
  telemetry::Gauge* open_routes_ = nullptr;

  mutable std::mutex mu_;
  std::map<std::string, Route> routes_;
};

}  // namespace gs::net
