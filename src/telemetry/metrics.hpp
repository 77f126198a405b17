// Telemetry metrics: lock-cheap counters, gauges, and fixed-bucket latency
// histograms behind a named registry.
//
// The paper's contribution is a quantitative comparison of two grid stacks;
// this registry is what lets the reproduction say *where* the time goes
// per layer (net, container, storage, delivery) instead of only measuring
// end to end from the bench harness. Writers are hot-path request threads,
// so every instrument is wait-free on write and writes no cache line that
// another thread writes: counters and histogram buckets are sharded across
// cache lines, one shard per thread (see thread_shard), and a histogram's
// shared min/max are only loaded unless a sample sets a new extreme.
// Readers (snapshots, the WSRF/WS-Transfer telemetry resource, the bench
// JSON dump) pay the aggregation cost instead.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace gs::telemetry {

/// Shards per sharded instrument.
inline constexpr unsigned kMetricShards = 16;

/// This thread's ordinal: 0, 1, 2, ... in order of each thread's first
/// call, fixed for the thread's life.
std::uint32_t thread_ordinal() noexcept;

/// This thread's shard of a sharded instrument: its ordinal modulo
/// kMetricShards, so any kMetricShards consecutively-started writer threads
/// land on distinct shards (hashing thread ids puts any two threads on one
/// shard 1 time in 16).
inline unsigned thread_shard() noexcept {
  return thread_ordinal() % kMetricShards;
}

/// Monotonic counter, sharded so concurrent writers on different threads
/// do not contend on one cache line. `value()` sums the shards.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  std::array<Shard, kMetricShards> shards_{};
};

/// Point-in-time signed value (queue depth, active workers).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// A histogram's counts copied out at one instant. Bucket i counts samples
/// in (2^(i-1), 2^i] microseconds (bucket 0: [0, 1]). Snapshots subtract,
/// so a bench run can report percentiles for exactly its own interval.
struct HistogramSnapshot {
  static constexpr unsigned kBuckets = 40;

  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  /// Exact smallest/largest recorded samples over the histogram's LIFETIME
  /// (not the subtraction interval: like gauges, extremes are levels —
  /// `operator-=` keeps the later values). min_us is UINT64_MAX when empty.
  std::uint64_t min_us = UINT64_MAX;
  std::uint64_t max_us = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Percentile estimate in microseconds (p in [0, 100]): nearest-rank
  /// bucket, linearly interpolated inside it. Exact to within one
  /// power-of-two bucket of the true sample percentile.
  double percentile(double p) const;

  HistogramSnapshot& operator-=(const HistogramSnapshot& earlier);
};

/// Fixed-bucket latency histogram (microseconds, powers of two). Recording
/// is two relaxed atomic adds on the writing thread's shard; reads sum the
/// shards, and percentile extraction walks the buckets.
class Histogram {
 public:
  static constexpr unsigned kBuckets = HistogramSnapshot::kBuckets;

  void record(std::uint64_t us) noexcept {
    Shard& shard = shards_[thread_shard()];
    shard.buckets[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
    shard.sum_us.fetch_add(us, std::memory_order_relaxed);
    // Exact extremes: power-of-two buckets alone can hide a single-outlier
    // spike (p99 stays put; max jumps), and the alerting rules need max.
    std::uint64_t seen = min_us_.load(std::memory_order_relaxed);
    while (us < seen &&
           !min_us_.compare_exchange_weak(seen, us, std::memory_order_relaxed)) {
    }
    seen = max_us_.load(std::memory_order_relaxed);
    while (us > seen &&
           !max_us_.compare_exchange_weak(seen, us, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept;
  std::uint64_t sum_us() const noexcept;
  /// Smallest recorded sample; UINT64_MAX before the first record().
  std::uint64_t min_us() const noexcept {
    return min_us_.load(std::memory_order_relaxed);
  }
  std::uint64_t max_us() const noexcept {
    return max_us_.load(std::memory_order_relaxed);
  }
  double percentile(double p) const { return snapshot().percentile(p); }

  HistogramSnapshot snapshot() const;

  static unsigned bucket_index(std::uint64_t us) noexcept;
  /// Inclusive upper bound of bucket i in microseconds.
  static std::uint64_t bucket_upper_bound(unsigned i) noexcept {
    return std::uint64_t(1) << i;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> sum_us{0};
  };

  std::array<Shard, kMetricShards> shards_{};
  alignas(64) std::atomic<std::uint64_t> min_us_{UINT64_MAX};
  std::atomic<std::uint64_t> max_us_{0};
};

/// Everything in a registry at one instant. Supports subtraction so the
/// bench harness can attribute metrics to a single benchmark's interval.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// after - before, per metric (gauges keep the `after` value — they are
/// levels, not totals). Metrics absent from `before` count from zero.
MetricsSnapshot delta(const MetricsSnapshot& before, const MetricsSnapshot& after);

/// Named metric registry. Instruments are created on first use and never
/// removed, so the returned references are stable for the registry's
/// lifetime — hot paths resolve a handle once and write lock-free
/// thereafter. The registry mutex guards only name lookup.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Process-wide registry the built-in instrumentation writes to.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace gs::telemetry
