#include "telemetry/slo.hpp"

#include <cstdio>
#include <stdexcept>

namespace gs::telemetry {

namespace {

std::string format_burn(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Samples-weighted sum of a rate series over [now - window, now]: each
/// point contributes value x samples, so a rollup point counts the same
/// as the raw points it folded.
double weighted_sum(const TimeSeriesStore& store, const std::string& series,
                    common::TimeMs window_ms, common::TimeMs now) {
  TimeSeriesStore::Window w = store.query(series, now - window_ms, now);
  double sum = 0.0;
  for (const SeriesPoint& p : w.points) {
    sum += p.value * static_cast<double>(p.samples);
  }
  return sum;
}

}  // namespace

SloTracker::SloTracker(const TimeSeriesStore* series, const common::Clock* clock)
    : series_(series), clock_(clock) {
  if (!series_) throw std::invalid_argument("SloTracker needs a series store");
}

void SloTracker::add_objective(SloObjective objective) {
  std::lock_guard lock(mu_);
  objectives_.push_back(std::move(objective));
  firing_.push_back(false);
}

double SloTracker::error_ratio(const SloObjective& objective,
                               common::TimeMs window_ms,
                               common::TimeMs now) const {
  switch (objective.kind) {
    case SloObjective::Kind::kAvailability: {
      double good = weighted_sum(*series_, objective.good_metric, window_ms, now);
      double bad = 0.0;
      for (const std::string& metric : objective.bad_metrics) {
        bad += weighted_sum(*series_, metric, window_ms, now);
      }
      double total = good + bad;
      return total <= 0.0 ? 0.0 : bad / total;
    }
    case SloObjective::Kind::kThreshold: {
      TimeSeriesStore::Window w =
          series_->query(objective.series, now - window_ms, now);
      if (w.points.empty()) return 0.0;
      std::size_t over = 0;
      for (const SeriesPoint& p : w.points) {
        if (p.value > objective.threshold) ++over;
      }
      return static_cast<double>(over) / static_cast<double>(w.points.size());
    }
  }
  return 0.0;
}

SloStatus SloTracker::evaluate_locked(const SloObjective& objective,
                                      common::TimeMs now) const {
  SloStatus s;
  s.objective = objective.name;
  s.error_ratio_short = error_ratio(objective, objective.short_window_ms, now);
  s.error_ratio_long = error_ratio(objective, objective.long_window_ms, now);
  double budget = 1.0 - objective.target;
  if (budget <= 0.0) budget = 1e-9;  // a 100% target burns on any error
  s.burn_short = s.error_ratio_short / budget;
  s.burn_long = s.error_ratio_long / budget;
  s.firing = s.burn_short > objective.burn_threshold &&
             s.burn_long > objective.burn_threshold;
  return s;
}

std::vector<SloAlert> SloTracker::evaluate(common::TimeMs now) {
  std::lock_guard lock(mu_);
  last_evaluated_ = now;
  std::vector<SloAlert> transitions;
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    SloStatus s = evaluate_locked(objectives_[i], now);
    if (s.firing == firing_[i]) continue;
    firing_[i] = s.firing;
    SloAlert alert;
    alert.objective = s.objective;
    alert.firing = s.firing;
    alert.burn_short = s.burn_short;
    alert.burn_long = s.burn_long;
    alert.burn_threshold = objectives_[i].burn_threshold;
    alert.detail = "slo '" + s.objective +
                   (s.firing ? "' burning: " : "' recovered: ") + "burn short=" +
                   format_burn(s.burn_short) + " long=" +
                   format_burn(s.burn_long) + " threshold=" +
                   format_burn(alert.burn_threshold);
    transitions.push_back(std::move(alert));
  }
  return transitions;
}

std::vector<SloStatus> SloTracker::status() const {
  std::lock_guard lock(mu_);
  // Judge at the instant the latches were last set, so the burn shown is
  // the burn that fired; the clock only stands in before the first
  // evaluate().
  common::TimeMs now = last_evaluated_ ? *last_evaluated_ : clock_->now();
  std::vector<SloStatus> out;
  out.reserve(objectives_.size());
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    SloStatus s = evaluate_locked(objectives_[i], now);
    s.firing = firing_[i];  // status reports the latched state
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace gs::telemetry
