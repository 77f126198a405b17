#include "telemetry/timeseries.hpp"

#include <algorithm>

namespace gs::telemetry {

const char* resolution_name(Resolution r) noexcept {
  switch (r) {
    case Resolution::kRaw: return "raw";
    case Resolution::kMid: return "mid";
    case Resolution::kCoarse: return "coarse";
  }
  return "?";
}

TimeSeriesStore::TimeSeriesStore(TimeSeriesConfig config)
    : config_(config) {
  if (!config_.registry) {
    throw std::invalid_argument("TimeSeriesStore needs a registry");
  }
  if (config_.interval_ms <= 0) config_.interval_ms = 1;
  if (config_.raw_capacity == 0) config_.raw_capacity = 1;
  if (config_.rollup_capacity == 0) config_.rollup_capacity = 1;
}

void TimeSeriesStore::push_locked(const std::string& name, SeriesPoint p) {
  Series& s = series_.try_emplace(name, config_.raw_capacity,
                                  config_.rollup_capacity)
                  .first->second;
  s.raw.push(p);

  // Fold the raw point into both rollup accumulators; emit a rollup point
  // whenever an accumulator reaches its factor. Rollup value is the
  // samples-weighted mean (ingested points carry samples == 1 like local
  // raw points, so the weighting is uniform in practice); min/max are the
  // true extremes across the folded raw points.
  struct Rollup {
    Accum& accum;
    Ring<SeriesPoint>& ring;
    unsigned factor;
  };
  for (Rollup r : {Rollup{s.mid_accum, s.mid, kMidFactor},
                   Rollup{s.coarse_accum, s.coarse, kCoarseFactor}}) {
    Accum& accum = r.accum;
    if (accum.raw_points == 0) {
      accum.min = p.min;
      accum.max = p.max;
    } else {
      accum.min = std::min(accum.min, p.min);
      accum.max = std::max(accum.max, p.max);
    }
    accum.weighted_sum += p.value * p.samples;
    accum.samples += p.samples;
    if (++accum.raw_points < r.factor) continue;
    SeriesPoint rolled;
    rolled.t_ms = p.t_ms;
    rolled.value = accum.weighted_sum / static_cast<double>(accum.samples);
    rolled.min = accum.min;
    rolled.max = accum.max;
    rolled.samples = static_cast<std::uint32_t>(accum.samples);
    r.ring.push(rolled);
    accum = Accum{};
  }
}

common::TimeMs TimeSeriesStore::sample() {
  common::TimeMs now = config_.clock->now();
  sample_snapshot(config_.registry->snapshot(), now);
  return now;
}

bool TimeSeriesStore::poll() {
  {
    std::lock_guard lock(mu_);
    if (last_cycle_ &&
        config_.clock->now() - *last_cycle_ < config_.interval_ms) {
      return false;
    }
  }
  sample();
  return true;
}

void TimeSeriesStore::sample_snapshot(const MetricsSnapshot& snap,
                                      common::TimeMs now) {
  std::lock_guard lock(mu_);
  last_cycle_ = now;
  ++samples_taken_;

  // Gauges are levels: every cycle yields a point, including the first.
  for (const auto& [name, value] : snap.gauges) {
    SeriesPoint p;
    p.t_ms = now;
    p.value = static_cast<double>(value);
    p.min = p.max = p.value;
    push_locked(name, p);
  }

  if (have_last_) {
    common::TimeMs elapsed = now - last_t_;
    // Counters need an elapsed interval to rate over; a zero/backwards
    // clock step cannot produce a meaningful rate, so those cycles only
    // advance the baseline. A LATE cycle (clock gap) divides by the real
    // elapsed time instead of the nominal interval.
    if (elapsed > 0) {
      for (const auto& [name, total] : snap.counters) {
        auto prev_it = last_.counters.find(name);
        std::uint64_t prev = prev_it == last_.counters.end() ? 0
                                                             : prev_it->second;
        // Counter reset (process restart): the new total IS the delta —
        // everything counted since the restart happened inside this
        // interval, and a negative delta must never reach the series.
        std::uint64_t delta = total >= prev ? total - prev : total;
        SeriesPoint p;
        p.t_ms = now;
        p.value = static_cast<double>(delta) * 1000.0 /
                  static_cast<double>(elapsed);
        p.min = p.max = p.value;
        push_locked(name, p);
      }
      for (const auto& [name, h] : snap.histograms) {
        HistogramSnapshot interval = h;
        auto prev_it = last_.histograms.find(name);
        if (prev_it != last_.histograms.end()) interval -= prev_it->second;
        // No recordings this interval -> a gap, not a misleading zero.
        if (interval.count == 0) continue;
        static constexpr struct {
          const char* suffix;
          double pct;
        } kQuantiles[] = {{".p50", 50.0}, {".p90", 90.0}, {".p99", 99.0}};
        for (const auto& q : kQuantiles) {
          SeriesPoint p;
          p.t_ms = now;
          p.value = interval.percentile(q.pct);
          p.min = p.max = p.value;
          push_locked(name + q.suffix, p);
        }
      }
    }
  }

  last_ = snap;
  last_t_ = now;
  have_last_ = true;
}

void TimeSeriesStore::ingest(const std::string& series, common::TimeMs t_ms,
                             double value) {
  SeriesPoint p;
  p.t_ms = t_ms;
  p.value = value;
  p.min = p.max = value;
  std::lock_guard lock(mu_);
  push_locked(series, p);
}

TimeSeriesStore::Window TimeSeriesStore::query(const std::string& series,
                                               common::TimeMs start_ms,
                                               common::TimeMs end_ms) const {
  std::lock_guard lock(mu_);
  Window out;
  out.interval_ms = config_.interval_ms;
  auto it = series_.find(series);
  if (it == series_.end()) return out;

  struct Candidate {
    Resolution resolution;
    const Ring<SeriesPoint>* ring;
    common::TimeMs interval;
  };
  const Candidate candidates[] = {
      {Resolution::kRaw, &it->second.raw, config_.interval_ms},
      {Resolution::kMid, &it->second.mid,
       config_.interval_ms * static_cast<common::TimeMs>(kMidFactor)},
      {Resolution::kCoarse, &it->second.coarse,
       config_.interval_ms * static_cast<common::TimeMs>(kCoarseFactor)},
  };

  // Finest ring whose oldest retained point still precedes the window
  // start; when even the coarse ring has lost that history, the ring with
  // the longest retained history (coarsest non-empty) answers with what
  // remains.
  const Candidate* chosen = nullptr;
  for (const Candidate& c : candidates) {
    if (c.ring->empty()) continue;
    chosen = &c;
    if (c.ring->front().t_ms <= start_ms) break;
  }
  if (!chosen) return out;

  out.resolution = chosen->resolution;
  out.interval_ms = chosen->interval;
  const Ring<SeriesPoint>& ring = *chosen->ring;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    if (ring[i].t_ms >= start_ms && ring[i].t_ms <= end_ms) {
      out.points.push_back(ring[i]);
    }
  }
  return out;
}

std::vector<std::string> TimeSeriesStore::series_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

std::uint64_t TimeSeriesStore::samples_taken() const {
  std::lock_guard lock(mu_);
  return samples_taken_;
}

}  // namespace gs::telemetry
