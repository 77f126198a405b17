#include "container/admission.hpp"

#include <algorithm>
#include <cmath>

#include "soap/envelope.hpp"
#include "telemetry/event_log.hpp"

namespace gs::container {

const char* priority_name(Priority p) noexcept {
  switch (p) {
    case Priority::kMonitoring: return "monitoring";
    case Priority::kNormal: return "normal";
    case Priority::kBulk: return "bulk";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(std::move(config)) {
  telemetry::MetricsRegistry& reg =
      config_.metrics ? *config_.metrics : telemetry::MetricsRegistry::global();
  admitted_ = &reg.counter("container.admitted");
  shed_total_ = &reg.counter("container.shed_total");
  shed_by_class_[0] = &reg.counter("container.shed_monitoring");
  shed_by_class_[1] = &reg.counter("container.shed_normal");
  shed_by_class_[2] = &reg.counter("container.shed_bulk");
  shed_queue_ = &reg.counter("container.shed_queue_depth");
  shed_bucket_ = &reg.counter("container.shed_token_bucket");
  inflight_ = &reg.gauge("container.inflight");
}

std::size_t AdmissionController::shed_depth(Priority p) const noexcept {
  switch (p) {
    case Priority::kMonitoring: return config_.shed_depth_monitoring;
    case Priority::kNormal: return config_.shed_depth_normal;
    case Priority::kBulk: return config_.shed_depth_bulk;
  }
  return config_.shed_depth_bulk;
}

std::size_t AdmissionController::depth() const {
  std::size_t transport = config_.queue_depth ? config_.queue_depth() : 0;
  return transport + static_cast<std::size_t>(
                         std::max<std::int64_t>(0, inflight_->value()));
}

void AdmissionController::on_start() { inflight_->add(1); }
void AdmissionController::on_finish() { inflight_->add(-1); }

AdmissionController::Decision AdmissionController::admit(
    Priority priority, const std::string& tenant, const std::string& service) {
  // Depth shed: judged on the live backlog, outside the bucket lock (the
  // queue_depth callback is deployment code and must not run under mu_).
  std::size_t backlog = depth();
  if (backlog >= shed_depth(priority)) {
    shed_total_->add();
    shed_queue_->add();
    shed_by_class_[static_cast<int>(priority)]->add();
    bool engaged = false;
    {
      std::lock_guard lock(mu_);
      engaged = !shedding_;
      shedding_ = true;
    }
    if (engaged) {
      telemetry::EventLog::global().emit(
          telemetry::Level::kWarn, "container.admission", "shedding engaged",
          {{"class", priority_name(priority)},
           {"depth", std::to_string(backlog)},
           {"service", service}});
    }
    return {false, config_.retry_after_ms, "queue-depth"};
  }

  // Token bucket: monitoring is exempt; a zero rate disables the bucket.
  if (priority != Priority::kMonitoring) {
    TokenBucketConfig shape = config_.per_tenant;
    if (auto it = config_.tenant_overrides.find(tenant);
        it != config_.tenant_overrides.end()) {
      shape = it->second;
    }
    if (shape.rate_per_sec > 0.0) {
      double burst = shape.burst > 0.0 ? shape.burst : shape.rate_per_sec;
      common::TimeMs now = config_.clock->now();
      common::TimeMs wait_ms = 0;
      bool rejected = false;
      {
        std::lock_guard lock(mu_);
        Bucket& bucket = buckets_[tenant + '|' + service];
        if (!bucket.primed) {
          bucket.tokens = burst;
          bucket.last_refill = now;
          bucket.primed = true;
        }
        if (now > bucket.last_refill) {
          bucket.tokens = std::min(
              burst, bucket.tokens + shape.rate_per_sec *
                                         static_cast<double>(now - bucket.last_refill) /
                                         1000.0);
          bucket.last_refill = now;
        }
        if (bucket.tokens >= 1.0) {
          bucket.tokens -= 1.0;
        } else {
          rejected = true;
          wait_ms = static_cast<common::TimeMs>(
              std::ceil((1.0 - bucket.tokens) * 1000.0 / shape.rate_per_sec));
        }
      }
      if (rejected) {
        shed_total_->add();
        shed_bucket_->add();
        shed_by_class_[static_cast<int>(priority)]->add();
        return {false, std::max(config_.retry_after_ms, wait_ms),
                "token-bucket"};
      }
    }
  }

  admitted_->add();
  bool released = false;
  {
    std::lock_guard lock(mu_);
    // One admit with the backlog back under half the bulk threshold ends
    // the shedding episode (hysteresis so the event pair does not flap).
    if (shedding_ && backlog < config_.shed_depth_bulk / 2) {
      shedding_ = false;
      released = true;
    }
  }
  if (released) {
    telemetry::EventLog::global().emit(
        telemetry::Level::kInfo, "container.admission", "shedding released",
        {{"depth", std::to_string(backlog)}});
  }
  return {true, 0, nullptr};
}

// --- the chain stage --------------------------------------------------------

AdmissionHandler::AdmissionHandler(
    std::shared_ptr<AdmissionController> controller)
    : controller_(std::move(controller)) {}

Priority AdmissionHandler::classify_request(const std::string& path,
                                            const net::HttpRequest* http) {
  if (http) {
    if (auto it = http->headers.find("X-GS-Priority");
        it != http->headers.end()) {
      if (it->second == "monitoring") return Priority::kMonitoring;
      if (it->second == "bulk") return Priority::kBulk;
      return Priority::kNormal;
    }
  }
  // The PR-1 telemetry resource and the PR-4 monitor's event sources are
  // how operators see into an overloaded container; they shed last.
  if (path.ends_with("/Telemetry")) return Priority::kMonitoring;
  return Priority::kNormal;
}

void AdmissionHandler::handle(PipelineContext& ctx, Next next) {
  AdmissionController::Decision decision = controller_->admit(
      classify_request(ctx.path, ctx.http_request), request_tenant(ctx), ctx.path);
  if (!decision.admitted) {
    if (ctx.http_request) {
      // Backpressure at the transport: 503 + Retry-After (whole seconds,
      // RFC 7231), body-free so the reject path serializes nothing.
      ctx.http_response = net::HttpResponse::error(503, "Service Unavailable");
      common::TimeMs seconds = (decision.retry_after_ms + 999) / 1000;
      ctx.http_response.headers["Retry-After"] =
          std::to_string(std::max<common::TimeMs>(1, seconds));
      ctx.http_response.headers["X-GS-Shed-Reason"] = decision.reason;
      ctx.http_done = true;
    } else {
      // In-process entry: a Receiver fault (the server, not the request,
      // is the problem). RetryingCaller never retries faults, so the
      // in-process path cannot amplify either.
      ctx.response = soap::Envelope::make_fault(
          {"Receiver",
           std::string("server busy, retry after ") +
               std::to_string(decision.retry_after_ms) + "ms",
           "", ""});
    }
    return;
  }

  controller_->on_start();
  try {
    next(ctx);
  } catch (...) {
    controller_->on_finish();
    throw;
  }
  controller_->on_finish();
}

}  // namespace gs::container
