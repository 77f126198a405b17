// Per-request cost attribution: which tenant is spending the container's
// capacity, and on what.
//
// PR 8 classifies requests by tenant (X-GS-Tenant) for admission; this
// layer reuses that classification for ACCOUNTING. Each request accrues a
// CostRecord as it moves through the PR-5 pipeline — wall/parse/serialize
// microseconds from the chain stages, DOM nodes and arena bytes from the
// PR-7 allocation probes, request/response octets from the transport
// boundary — and the container hands the finished record to a
// CostAggregator keyed (tenant, service path).
//
// Two outputs per record, written on the request thread:
//   * `tenant.<id>.*` metrics in the registry (requests counter, wall_us
//     histogram, bytes_in/bytes_out counters) so tenant spend is visible
//     to everything downstream of the registry — series, SLOs, monitor
//     snapshots;
//   * an exact per-tenant / per-service table behind `<t:Tenants>` in the
//     telemetry document, where integer totals (nodes, bytes, faults)
//     stay lossless.
//
// Metric handles are cached per tenant: the steady-state cost of
// attribution is one map lookup under a short mutex plus four lock-free
// metric writes (bench_timeseries gates it).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace gs::telemetry {

/// What one request cost, accrued along the pipeline.
struct CostRecord {
  std::uint64_t wall_us = 0;       // transport entry to response ready
  std::uint64_t parse_us = 0;      // request body -> envelope
  std::uint64_t serialize_us = 0;  // envelope -> response octets
  std::uint64_t xml_nodes = 0;     // DOM nodes built serving the request
  std::uint64_t arena_bytes = 0;   // parser arena bytes bump-allocated
  std::uint64_t request_bytes = 0;
  std::uint64_t response_bytes = 0;
  bool fault = false;
};

class CostAggregator {
 public:
  /// Lossless running totals for one (tenant, service) or tenant overall.
  struct Costs {
    std::uint64_t requests = 0;
    std::uint64_t faults = 0;
    std::uint64_t wall_us = 0;
    std::uint64_t parse_us = 0;
    std::uint64_t serialize_us = 0;
    std::uint64_t xml_nodes = 0;
    std::uint64_t arena_bytes = 0;
    std::uint64_t request_bytes = 0;
    std::uint64_t response_bytes = 0;

    void accrue(const CostRecord& cost);
  };

  struct TenantCosts {
    std::string tenant;
    Costs total;
    std::map<std::string, Costs> by_service;  // key: service path
  };

  explicit CostAggregator(
      MetricsRegistry* registry = &MetricsRegistry::global());

  /// Attributes one finished request. Thread-safe; runs on the request
  /// thread, so it must stay cheap (cached handles, one short lock).
  void record(const std::string& tenant, const std::string& service,
              const CostRecord& cost);

  /// All tenants, sorted by id.
  std::vector<TenantCosts> totals() const;
  std::optional<TenantCosts> tenant(const std::string& id) const;
  std::uint64_t requests_recorded() const;

 private:
  struct Handles {
    Counter* requests = nullptr;
    Histogram* wall_us = nullptr;
    Counter* bytes_in = nullptr;
    Counter* bytes_out = nullptr;
  };

  MetricsRegistry* registry_;
  mutable std::mutex mu_;
  std::map<std::string, TenantCosts> table_;
  std::map<std::string, Handles> handles_;
};

}  // namespace gs::telemetry
