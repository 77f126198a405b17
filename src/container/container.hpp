// The resource-aware container (paper Figure 1).
//
// Request path: an explicit HandlerChain — parse, telemetry, lifetime
// sweep, resolve (path -> pinned service), security/policy (X.509
// verification when configured), dispatch (wsa:Action -> operation) — over
// the storage binding shared by the deployed services. One Container per
// simulated host; it is a net::Endpoint, so it mounts on the virtual
// network and on the real TCP HttpServer alike. Deployments may add stages
// to the chain (Container::chain) before taking traffic.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "container/handler.hpp"
#include "container/lifetime.hpp"
#include "container/registry.hpp"
#include "container/service.hpp"
#include "net/virtual_network.hpp"
#include "security/cert.hpp"
#include "telemetry/metrics.hpp"

namespace gs::container {

/// Message-level security policy enforced by the container.
enum class SecurityMode {
  kNone,  // accept anything (paper scenarios 1 and 4; HTTPS scenarios too,
          // where protection is at the transport)
  kX509,  // require a valid X.509 signature; sign every response
};

struct ContainerConfig {
  SecurityMode security = SecurityMode::kNone;
  /// Trust anchor for verifying client signatures (kX509).
  const security::Certificate* anchor = nullptr;
  /// This host's credential: signs responses (kX509) and serves TLS.
  const security::Credential* credential = nullptr;
  /// Time source for lifetime management.
  const common::Clock* clock = &common::RealClock::instance();
  /// Metrics destination; nullptr = the process-wide registry.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Metric handles resolved once at construction (registry references are
/// stable; the hot path writes lock-free). Chain handlers record through
/// these so a composed chain keeps the same metric names.
struct ContainerMetrics {
  telemetry::Counter* requests = nullptr;
  telemetry::Counter* faults = nullptr;
  telemetry::Histogram* dispatch_us = nullptr;
  telemetry::Histogram* handler_us = nullptr;
  telemetry::Histogram* verify_us = nullptr;  // request signature check
  telemetry::Histogram* sign_us = nullptr;    // response signing
  telemetry::Histogram* parse_us = nullptr;
  telemetry::Histogram* serialize_us = nullptr;
  /// Allocation probe (see xml/probe.hpp): DOM nodes built while serving
  /// one HTTP request, and total arena bytes the pull parser bump-allocated.
  telemetry::Histogram* nodes_per_request = nullptr;
  telemetry::Counter* arena_bytes = nullptr;
};

class Container final : public net::Endpoint {
 public:
  explicit Container(ContainerConfig config);

  /// Deploys a service at a path, e.g. "/CounterService". The container
  /// does not own the service.
  void deploy(const std::string& path, Service& service);
  /// Undeploys and blocks until requests already dispatched to the
  /// service drain (see ServiceRegistry::undeploy).
  void undeploy(const std::string& path);
  /// Pins the service at a path for the handle's lifetime; empty handle
  /// when none is deployed.
  ServiceHandle service_at(const std::string& path) const;

  LifetimeManager& lifetime() noexcept { return lifetime_; }
  const ContainerConfig& config() const noexcept { return config_; }
  ServiceRegistry& registry() noexcept { return registry_; }
  const ServiceRegistry& registry() const noexcept { return registry_; }
  const ContainerMetrics& metrics() const noexcept { return metrics_; }

  /// The request pipeline. Edit at deployment time only — running requests
  /// read the chain unsynchronized.
  HandlerChain& chain() noexcept { return chain_; }
  /// The standard pipeline: parse, telemetry, lifetime-sweep, resolve,
  /// security, dispatch.
  static HandlerChain default_chain();

  /// Registers a named recovery hook. Deployments register one per
  /// stateful layer (wsrf home, subscription stores) while wiring up;
  /// recover() runs them in registration order, which is therefore the
  /// cross-layer recovery order — register foundations (resource
  /// properties) before the layers that reference them (subscriptions
  /// pointing at resources).
  void add_recovery(std::string name, std::function<void()> hook);

  /// The explicit recovery phase: replays every registered hook against
  /// the (durable) storage binding, rebuilding in-memory state before the
  /// container takes traffic. A hook that throws is logged and counted
  /// (`container.recovery_failures`) and recovery continues — one corrupt
  /// layer must not hold the rest of the container down. Returns the
  /// number of hooks that succeeded.
  std::size_t recover();

  /// Attaches per-tenant cost attribution: every finished request's
  /// CostRecord is recorded under its (tenant, path). Deployment-time
  /// wiring (before traffic); nullptr detaches.
  void set_cost_aggregator(telemetry::CostAggregator* costs) noexcept {
    costs_ = costs;
  }
  telemetry::CostAggregator* cost_aggregator() const noexcept { return costs_; }

  /// net::Endpoint: runs the chain from the transport boundary.
  net::HttpResponse handle(const net::HttpRequest& request) override;
  const security::Credential* tls_credential() const override {
    return config_.credential;
  }

  /// Processes an envelope directly (in-process callers and tests); the
  /// parse stage passes through.
  soap::Envelope process(const soap::Envelope& request, const std::string& path);

 private:
  void attribute_cost(PipelineContext& ctx,
                      std::chrono::steady_clock::time_point started) const;

  ContainerConfig config_;
  LifetimeManager lifetime_;
  ServiceRegistry registry_;
  ContainerMetrics metrics_;
  HandlerChain chain_;
  telemetry::CostAggregator* costs_ = nullptr;
  std::vector<std::pair<std::string, std::function<void()>>> recovery_hooks_;
};

}  // namespace gs::container
