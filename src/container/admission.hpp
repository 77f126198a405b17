// Overload control for the request path: admission, priority shedding,
// backpressure (ROADMAP item 4).
//
// The paper's stacks were benchmarked closed-loop and lightly loaded; a
// container serving real traffic sees offered load decoupled from its
// completion rate, and once the backlog passes the point where every
// queued request will miss its caller's deadline, finishing the queue is
// pure waste — goodput collapses while throughput looks fine. The era's
// evaluations (Demichev et al.'s OGSA/Globus measurements, the Global
// Grids survey) hit exactly this: container saturation, not protocol
// cost, dominated under load.
//
// The fix is an AdmissionHandler inserted at the FRONT of the PR-5
// HandlerChain — rejection must be cheap, so it runs before the request
// is even XML-parsed. Three mechanisms, in the order they fire:
//
//  1. Priority-class shedding on queue depth. Every request is classified
//     (monitoring / normal / bulk); each class has a depth threshold, and
//     a request whose class threshold is exceeded by the live backlog
//     (transport queue + in-flight requests) is rejected. Bulk sheds
//     first, monitoring (the gs:Telemetry traffic the PR-4 monitor rides
//     on) survives until the hard cap — you can still see into a
//     saturated container.
//  2. Per-tenant/per-service token buckets. A tenant that exceeds its
//     contracted rate is rejected even when the container has headroom,
//     so one aggressive client cannot starve the rest.
//  3. Backpressure instead of queueing: rejections leave as HTTP 503 with
//     a Retry-After header (or a Receiver fault for in-process entry) —
//     the client is told to back off rather than silently joining a queue
//     it will time out in. net::RetryingCaller honours the hint and its
//     circuit breaker stops retry amplification (see net/breaker.hpp).
//
// Shedding is observable: container.shed_* / container.admitted counters,
// a container.inflight gauge, and an edge-triggered "shedding engaged" /
// "shedding released" EventLog pair (one event per episode, not per
// rejection — a shedding container must not drown its own event ring).
// A one-tick telemetry::SloObjective (kThreshold on container.shed_total,
// 0 ms windows) surfaces engagement through the MonitorProducer.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/clock.hpp"
#include "container/handler.hpp"
#include "telemetry/metrics.hpp"

namespace gs::container {

/// Request priority classes, in shed order (bulk first, monitoring last).
enum class Priority { kMonitoring = 0, kNormal = 1, kBulk = 2 };

const char* priority_name(Priority p) noexcept;

/// Token-bucket shape: sustained `rate_per_sec` with bursts up to `burst`
/// (defaults to one second's worth when 0). rate_per_sec == 0 disables
/// the bucket entirely.
struct TokenBucketConfig {
  double rate_per_sec = 0.0;
  double burst = 0.0;
};

struct AdmissionConfig {
  const common::Clock* clock = &common::RealClock::instance();

  /// Live transport backlog (accept queue, threadpool queue) in front of
  /// the container; the controller adds its own in-flight count. Null =
  /// only in-flight requests are counted.
  std::function<std::size_t()> queue_depth;

  /// Depth thresholds per class: a request is shed when the backlog at
  /// admission time has reached its class's threshold. Monitoring's is
  /// the hard cap on total accepted work.
  std::size_t shed_depth_bulk = 64;
  std::size_t shed_depth_normal = 128;
  std::size_t shed_depth_monitoring = 512;

  /// Default per-(tenant, service) bucket; `tenant_overrides` replaces it
  /// for specific tenants. Monitoring-class traffic is exempt (it is
  /// bounded by the hard depth cap alone).
  TokenBucketConfig per_tenant;
  std::map<std::string, TokenBucketConfig> tenant_overrides;

  /// Retry-After on depth sheds; bucket rejections answer with the actual
  /// time until a token accrues when that is longer.
  common::TimeMs retry_after_ms = 1000;

  /// Metrics destination; nullptr = the process-wide registry.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// The admission decision state machine, separable from the chain stage so
/// tests (and the bench's accept loop) can drive it directly.
class AdmissionController {
 public:
  struct Decision {
    bool admitted = true;
    common::TimeMs retry_after_ms = 0;
    const char* reason = nullptr;  // "queue-depth" or "token-bucket"
  };

  explicit AdmissionController(AdmissionConfig config);

  /// One admission decision. Thread-safe; cheap enough for the reject path
  /// to run at wire speed (one mutex, no allocation on the admit path once
  /// the tenant's bucket exists).
  Decision admit(Priority priority, const std::string& tenant,
                 const std::string& service);

  /// In-flight accounting (the handler brackets the inner chain with
  /// these; the bench's workers do the same around direct dispatch).
  void on_start();
  void on_finish();

  /// Transport backlog plus in-flight — the depth sheds are judged on.
  std::size_t depth() const;

  const AdmissionConfig& config() const noexcept { return config_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    common::TimeMs last_refill = 0;
    bool primed = false;
  };

  std::size_t shed_depth(Priority p) const noexcept;

  AdmissionConfig config_;
  telemetry::Counter* admitted_ = nullptr;
  telemetry::Counter* shed_total_ = nullptr;
  telemetry::Counter* shed_by_class_[3] = {nullptr, nullptr, nullptr};
  telemetry::Counter* shed_queue_ = nullptr;
  telemetry::Counter* shed_bucket_ = nullptr;
  telemetry::Gauge* inflight_ = nullptr;

  mutable std::mutex mu_;
  std::map<std::string, Bucket> buckets_;  // key: tenant + '|' + service
  bool shedding_ = false;                  // edge-trigger latch for events
};

/// The chain stage. Classification runs on transport-level facts only
/// (path and HTTP headers) so a shed request is never parsed: the
/// X-GS-Priority header ("monitoring"/"bulk") and a path suffix of
/// "/Telemetry" (the PR-1 telemetry resource) set the priority, and
/// request_tenant the tenant.
class AdmissionHandler final : public Handler {
 public:
  explicit AdmissionHandler(std::shared_ptr<AdmissionController> controller);

  const char* name() const noexcept override { return "admission"; }
  void handle(PipelineContext& ctx, Next next) override;

  AdmissionController& controller() noexcept { return *controller_; }

  /// Transport-level classification shared with accept loops that sort
  /// requests into priority lanes before they reach the chain.
  static Priority classify_request(const std::string& path,
                                   const net::HttpRequest* http);

 private:
  std::shared_ptr<AdmissionController> controller_;
};

}  // namespace gs::container
