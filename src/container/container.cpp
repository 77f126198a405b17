#include "container/container.hpp"

#include "telemetry/event_log.hpp"

namespace gs::container {

Container::Container(ContainerConfig config)
    : config_(config),
      lifetime_(*config.clock, config.metrics),
      chain_(default_chain()) {
  if (config_.security == SecurityMode::kX509) {
    if (!config_.anchor || !config_.credential) {
      throw std::invalid_argument(
          "X.509 container security requires an anchor and a credential");
    }
  }
  telemetry::MetricsRegistry& reg =
      config_.metrics ? *config_.metrics : telemetry::MetricsRegistry::global();
  metrics_.requests = &reg.counter("container.requests");
  metrics_.faults = &reg.counter("container.faults");
  metrics_.dispatch_us = &reg.histogram("container.dispatch_us");
  metrics_.handler_us = &reg.histogram("container.handler_us");
  metrics_.verify_us = &reg.histogram("security.verify_us");
  metrics_.sign_us = &reg.histogram("security.sign_us");
  metrics_.parse_us = &reg.histogram("container.parse_us");
  metrics_.serialize_us = &reg.histogram("container.serialize_us");
  metrics_.nodes_per_request = &reg.histogram("xml.nodes_per_request");
  metrics_.arena_bytes = &reg.counter("xml.arena_bytes");
}

HandlerChain Container::default_chain() {
  HandlerChain chain;
  chain.append(std::make_shared<ParseHandler>())
      .append(std::make_shared<TelemetryHandler>())
      .append(std::make_shared<LifetimeSweepHandler>())
      .append(std::make_shared<ResolveHandler>())
      .append(std::make_shared<SecurityHandler>())
      .append(std::make_shared<DispatchHandler>());
  return chain;
}

void Container::deploy(const std::string& path, Service& service) {
  registry_.deploy(path, service);
}

void Container::undeploy(const std::string& path) { registry_.undeploy(path); }

ServiceHandle Container::service_at(const std::string& path) const {
  return registry_.pin(path);
}

void Container::add_recovery(std::string name, std::function<void()> hook) {
  recovery_hooks_.emplace_back(std::move(name), std::move(hook));
}

std::size_t Container::recover() {
  telemetry::MetricsRegistry& reg =
      config_.metrics ? *config_.metrics : telemetry::MetricsRegistry::global();
  telemetry::Counter& failures = reg.counter("container.recovery_failures");
  telemetry::Histogram& recovery_us = reg.histogram("container.recovery_us");
  std::size_t ok = 0;
  for (const auto& [name, hook] : recovery_hooks_) {
    auto t0 = std::chrono::steady_clock::now();
    try {
      hook();
      ++ok;
      telemetry::EventLog::global().emit(telemetry::Level::kInfo, "container",
                                         "recovered layer " + name, {});
    } catch (const std::exception& e) {
      failures.add(1);
      telemetry::EventLog::global().emit(
          telemetry::Level::kError, "container",
          "recovery of layer " + name + " failed: " + e.what(), {});
    }
    recovery_us.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  return ok;
}

void Container::attribute_cost(
    PipelineContext& ctx, std::chrono::steady_clock::time_point started) const {
  if (!costs_) return;
  ctx.cost.wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  ctx.cost.fault = ctx.cost.fault || ctx.response.is_fault() ||
                   (ctx.http_done && ctx.http_response.status >= 400);
  // Shed requests are charged to their tenant too (rejection work is still
  // work).
  costs_->record(request_tenant(ctx), ctx.path, ctx.cost);
}

soap::Envelope Container::process(const soap::Envelope& request,
                                  const std::string& path) {
  PipelineContext ctx(*this, path);
  ctx.request = &request;
  auto started = std::chrono::steady_clock::now();
  chain_.run(ctx);
  attribute_cost(ctx, started);
  return std::move(ctx.response);
}

net::HttpResponse Container::handle(const net::HttpRequest& request) {
  PipelineContext ctx(*this, request.path);
  ctx.http_request = &request;
  auto started = std::chrono::steady_clock::now();
  chain_.run(ctx);
  attribute_cost(ctx, started);
  if (!ctx.http_done) {
    // A chain without a transport stage still answers HTTP: map the
    // envelope the inner stages produced.
    if (ctx.response.is_fault()) {
      net::HttpResponse http = net::HttpResponse::error(
          500, "Internal Server Error", ctx.response.to_xml());
      http.headers["Content-Type"] = "application/soap+xml";
      return http;
    }
    return net::HttpResponse::ok(ctx.response.to_xml(), "application/soap+xml");
  }
  return std::move(ctx.http_response);
}

}  // namespace gs::container
