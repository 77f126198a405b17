// Service-level objectives evaluated as burn rates over the
// TimeSeriesStore: the monitoring plane's one alert engine.
//
// An objective asks the operator's question — "are we spending error
// budget fast enough to miss the target?". Burn rate is the standard SRE
// formulation:
//
//   burn = observed error ratio / allowed error ratio (1 - target)
//
// evaluated over TWO windows: a short one for detection speed and a long
// one to reject blips. An objective fires only when BOTH windows burn
// above the threshold. Alerts are edge-triggered transitions through one
// latch per objective (one on fire, one on recovery), so a stuck-bad
// objective cannot flood subscribers.
//
//   * kAvailability: error ratio = bad / (good + bad), where good and bad
//     are counter-rate series (samples-weighted sums over the window) —
//     e.g. good = container.admitted, bad = container.shed_* + faults.
//   * kThreshold: error ratio = fraction of the window's points of
//     `series` above `threshold` (an empty window counts as good). On a
//     histogram's `<name>.p99` series this is a latency objective. With
//     both windows at 0 ms it is a one-tick threshold rule: the query is
//     inclusive at both ends, so the window holds only the point sampled
//     at `now`, and any breach burns at 1 / (1 - target).
//
// The tracker only reads; firing side effects (EventLog entries, wsn/wse
// Alert publication) belong to the MonitorProducer driving evaluate().
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "telemetry/timeseries.hpp"

namespace gs::telemetry {

struct SloObjective {
  enum class Kind { kAvailability, kThreshold };

  std::string name;  // stamped into alerts ("availability")
  Kind kind = Kind::kAvailability;

  /// kAvailability: counter series for successes / failures.
  std::string good_metric;
  std::vector<std::string> bad_metrics;

  /// kThreshold: the series judged point by point ("app.requests" for a
  /// counter rate, "container.dispatch_us.p99" for a latency) and the
  /// value a point must exceed to count as bad.
  std::string series;
  double threshold = 0.0;

  /// SLO target as a fraction of good outcomes (0.999 = "three nines");
  /// allowed error ratio is 1 - target.
  double target = 0.999;

  common::TimeMs short_window_ms = 5'000;
  common::TimeMs long_window_ms = 60'000;
  /// Fire when BOTH windows burn above this multiple of budget.
  double burn_threshold = 1.0;
};

/// Point-in-time evaluation of one objective (the telemetry document's
/// <t:Slo> rows).
struct SloStatus {
  std::string objective;
  bool firing = false;
  double burn_short = 0.0;
  double burn_long = 0.0;
  double error_ratio_short = 0.0;
  double error_ratio_long = 0.0;
};

/// One edge-triggered transition returned by evaluate().
struct SloAlert {
  std::string objective;
  bool firing = false;  // true = started breaching, false = recovered
  double burn_short = 0.0;
  double burn_long = 0.0;
  double burn_threshold = 0.0;  // the objective's, judged against
  std::string detail;
};

class SloTracker {
 public:
  SloTracker(const TimeSeriesStore* series,
             const common::Clock* clock = &common::RealClock::instance());

  void add_objective(SloObjective objective);

  /// Evaluates every objective over the windows ending at `now` and
  /// returns the TRANSITIONS since the previous call (edge-triggered).
  /// Pass the instant the store last sampled: a later clock read would
  /// miss that point in a 0 ms window.
  std::vector<SloAlert> evaluate(common::TimeMs now);

  /// Burn rates per objective at the last evaluate() instant (the clock's
  /// now before the first), without touching the latches.
  std::vector<SloStatus> status() const;

 private:
  SloStatus evaluate_locked(const SloObjective& objective,
                            common::TimeMs now) const;
  double error_ratio(const SloObjective& objective, common::TimeMs window_ms,
                     common::TimeMs now) const;

  const TimeSeriesStore* series_;
  const common::Clock* clock_;
  mutable std::mutex mu_;
  std::vector<SloObjective> objectives_;
  std::vector<bool> firing_;  // latch, parallel to objectives_
  std::optional<common::TimeMs> last_evaluated_;  // instant of the latches
};

}  // namespace gs::telemetry
