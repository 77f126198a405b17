// Wire cost model and metering for the simulated network.
//
// The paper ran each scenario co-located (client and service on one
// machine) and distributed (two identical Opterons on a LAN). This repo
// substitutes a deterministic wire model: every message is charged
// propagation + transmission costs, every fresh TCP connection a connect
// cost. Real compute (XML, crypto, database) still runs on the CPU; the
// benches report wall time plus the metered wire time, so the co-located /
// distributed delta appears exactly as the profile dictates.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "telemetry/metrics.hpp"

namespace gs::net {

/// Wire cost parameters, all in milliseconds.
struct NetworkProfile {
  double one_way_ms = 0.0;  // propagation per message hop
  double per_kb_ms = 0.0;   // transmission per kilobyte
  double connect_ms = 0.0;  // TCP three-way handshake

  /// Same-machine loopback: effectively free.
  static NetworkProfile colocated() { return {0.02, 0.001, 0.05}; }
  /// 100 Mbit/s-era LAN between two hosts (the paper's testbed):
  /// ~2 ms one-way including the 2005 service-stack receive path,
  /// ~0.08 ms/KB transmission, ~3 ms connection establishment.
  static NetworkProfile distributed() { return {2.0, 0.08, 3.0}; }
};

/// Thread-safe accumulator of simulated wire time and traffic counters.
/// Every charge is a relaxed add on the charging thread's own shard, as
/// with telemetry::Counter, so request threads sharing one meter write no
/// common cache line; the readers sum the shards.
class WireMeter {
 public:
  void charge_ms(double ms) { add(kNanos, static_cast<std::int64_t>(ms * 1e6)); }
  void add_message(std::size_t bytes) {
    add(kMessages, 1);
    add(kBytes, static_cast<std::int64_t>(bytes));
  }
  void add_connect() { add(kConnects, 1); }
  void add_handshake() { add(kHandshakes, 1); }

  double simulated_ms() const { return static_cast<double>(sum(kNanos)) / 1e6; }
  std::int64_t messages() const { return sum(kMessages); }
  std::int64_t bytes() const { return sum(kBytes); }
  std::int64_t connects() const { return sum(kConnects); }
  std::int64_t handshakes() const { return sum(kHandshakes); }

  void reset() {
    for (Shard& shard : shards_) {
      for (auto& n : shard.n) n.store(0, std::memory_order_relaxed);
    }
  }

 private:
  enum Field { kNanos, kMessages, kBytes, kConnects, kHandshakes, kFields };
  struct alignas(64) Shard {
    std::array<std::atomic<std::int64_t>, kFields> n{};
  };

  void add(Field field, std::int64_t v) {
    shards_[telemetry::thread_shard()].n[field].fetch_add(v, std::memory_order_relaxed);
  }
  std::int64_t sum(Field field) const {
    std::int64_t total = 0;
    for (const Shard& shard : shards_) total += shard.n[field].load(std::memory_order_relaxed);
    return total;
  }

  std::array<Shard, telemetry::kMetricShards> shards_{};
};

}  // namespace gs::net
