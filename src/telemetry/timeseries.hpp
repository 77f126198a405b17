// Time-series retention over the metrics registry: history, not just "now".
//
// PR 1's Telemetry resource and PR 4's monitor both expose point-in-time
// values; the longitudinal questions grid performance studies ask ("what
// was p99 over the last minute", "when did the error rate spike") need
// retained samples. TimeSeriesStore keeps a bounded, fixed-interval ring
// of points per metric, sampled from a MetricsRegistry on an injectable
// clock:
//
//   * counters  -> per-interval deltas converted to rates/sec over the
//                  ACTUAL elapsed time (a late sample does not inflate the
//                  rate), with counter-reset detection (a restarted
//                  process's smaller total reads as `delta = new total`,
//                  not a huge negative spike);
//   * gauges    -> sampled as-is (levels);
//   * histograms -> the interval's own p50/p90/p99 (snapshot subtraction),
//                  emitted as three derived series `name.p50/.p90/.p99`;
//                  intervals with no recordings produce gaps, not zeros.
//
// Retention is multi-resolution: every raw point also folds into 10x and
// 60x rollup rings (samples-weighted mean, true min/max), so with the
// default 1 s interval and 120-point rings the store answers queries over
// the last 2 minutes at 1 s resolution, 20 minutes at 10 s, and 2 hours at
// 60 s — in ~3x the memory of the raw ring alone.
//
// Writers are the sampler (one thread, periodic) and `ingest` (the
// fleet-wide MonitorConsumer); readers are the telemetry document and the
// query API. One mutex over the whole table is fine at those rates — the
// request hot path never touches this store.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/ring.hpp"

namespace gs::telemetry {

/// Which ring a query was answered from.
enum class Resolution { kRaw = 0, kMid = 1, kCoarse = 2 };

const char* resolution_name(Resolution r) noexcept;

/// One retained sample. Raw points carry samples == 1 and min == max ==
/// value; rollup points carry the samples-weighted mean and the true
/// extremes of the raw points they fold.
struct SeriesPoint {
  common::TimeMs t_ms = 0;  // sample instant (interval end)
  double value = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint32_t samples = 1;
};

struct TimeSeriesConfig {
  MetricsRegistry* registry = &MetricsRegistry::global();
  const common::Clock* clock = &common::RealClock::instance();
  /// Sampling cadence for poll(); sample() ignores it.
  common::TimeMs interval_ms = 1000;
  /// Points retained per series in the raw ring.
  std::size_t raw_capacity = 120;
  /// Points retained per series in each rollup ring.
  std::size_t rollup_capacity = 120;
};

class TimeSeriesStore {
 public:
  /// Rollup factors: one mid point per 10 raw points, one coarse per 60.
  static constexpr unsigned kMidFactor = 10;
  static constexpr unsigned kCoarseFactor = 60;

  struct Window {
    Resolution resolution = Resolution::kRaw;
    /// Nominal spacing of the returned points (config interval x factor).
    common::TimeMs interval_ms = 0;
    std::vector<SeriesPoint> points;
  };

  explicit TimeSeriesStore(TimeSeriesConfig config);

  /// One sampling cycle: snapshot the registry at the clock's current
  /// time, append a point per metric. Returns the instant stamped on the
  /// points.
  common::TimeMs sample();

  /// sample() if `interval_ms` elapsed since the last cycle; returns
  /// whether a cycle ran. No internal thread — call from any periodic
  /// context (the MonitorProducer ticks it).
  bool poll();

  /// Test seam and restart fixture: sample from a caller-supplied snapshot
  /// at a caller-supplied instant instead of the live registry/clock.
  void sample_snapshot(const MetricsSnapshot& snap, common::TimeMs now);

  /// Appends an externally-produced point (the fleet-wide MonitorConsumer
  /// feeds remote producers' series through this).
  void ingest(const std::string& series, common::TimeMs t_ms, double value);

  /// Points of `series` with t_ms in [start_ms, end_ms], oldest first,
  /// answered from the finest ring whose retained history still covers
  /// start_ms (falling back to the coarsest non-empty ring when none
  /// does). Unknown series yield an empty raw window.
  Window query(const std::string& series, common::TimeMs start_ms = 0,
               common::TimeMs end_ms =
                   std::numeric_limits<common::TimeMs>::max()) const;

  std::vector<std::string> series_names() const;
  common::TimeMs interval_ms() const noexcept { return config_.interval_ms; }
  std::uint64_t samples_taken() const;

 private:
  /// Rollup in progress: raw points folded so far toward the next point.
  struct Accum {
    double weighted_sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t samples = 0;
    unsigned raw_points = 0;
  };

  struct Series {
    Series(std::size_t raw_capacity, std::size_t rollup_capacity)
        : raw(raw_capacity), mid(rollup_capacity), coarse(rollup_capacity) {}
    Ring<SeriesPoint> raw, mid, coarse;
    Accum mid_accum, coarse_accum;
  };

  void push_locked(const std::string& name, SeriesPoint p);

  TimeSeriesConfig config_;
  mutable std::mutex mu_;
  std::map<std::string, Series> series_;
  MetricsSnapshot last_;
  bool have_last_ = false;
  common::TimeMs last_t_ = 0;
  std::optional<common::TimeMs> last_cycle_;
  std::uint64_t samples_taken_ = 0;
};

}  // namespace gs::telemetry
