#include "telemetry/metrics.hpp"

#include <bit>
#include <cmath>

namespace gs::telemetry {

std::uint32_t thread_ordinal() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

unsigned Histogram::bucket_index(std::uint64_t us) noexcept {
  if (us <= 1) return 0;
  unsigned index = static_cast<unsigned>(std::bit_width(us - 1));
  return index < kBuckets ? index : kBuckets - 1;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    for (const auto& b : shard.buckets) total += b.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::sum_us() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sum_us.load(std::memory_order_relaxed);
  }
  return total;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  for (const Shard& shard : shards_) {
    for (unsigned i = 0; i < kBuckets; ++i) {
      snap.buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
    snap.sum_us += shard.sum_us.load(std::memory_order_relaxed);
  }
  for (std::uint64_t b : snap.buckets) snap.count += b;
  snap.min_us = min_us_.load(std::memory_order_relaxed);
  snap.max_us = max_us_.load(std::memory_order_relaxed);
  return snap;
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Nearest-rank (1-based), then interpolate inside the bucket.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (unsigned i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] >= rank) {
      double lower = i == 0 ? 0.0
                            : static_cast<double>(Histogram::bucket_upper_bound(i - 1));
      double upper = static_cast<double>(Histogram::bucket_upper_bound(i));
      double fraction = static_cast<double>(rank - seen) /
                        static_cast<double>(buckets[i]);
      return lower + (upper - lower) * fraction;
    }
    seen += buckets[i];
  }
  return static_cast<double>(Histogram::bucket_upper_bound(kBuckets - 1));
}

HistogramSnapshot& HistogramSnapshot::operator-=(const HistogramSnapshot& earlier) {
  count -= earlier.count;
  sum_us -= earlier.sum_us;
  // min/max stay as-is: extremes are lifetime levels (the bucket counts
  // can't reconstruct an interval's true extremes after subtraction).
  for (unsigned i = 0; i < kBuckets; ++i) buckets[i] -= earlier.buckets[i];
  return *this;
}

MetricsSnapshot delta(const MetricsSnapshot& before, const MetricsSnapshot& after) {
  MetricsSnapshot out;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    out.counters[name] = value - (it == before.counters.end() ? 0 : it->second);
  }
  out.gauges = after.gauges;  // levels, not totals
  for (const auto& [name, snap] : after.histograms) {
    HistogramSnapshot d = snap;
    if (auto it = before.histograms.find(name); it != before.histograms.end()) {
      d -= it->second;
    }
    out.histograms[name] = d;
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h->snapshot();
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace gs::telemetry
