#include "container/handler.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "container/container.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/propagation.hpp"
#include "telemetry/trace.hpp"
#include "xml/probe.hpp"

namespace gs::container {

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

net::HttpResponse serialize_response(const soap::Envelope& response) {
  // SOAP 1.2 over HTTP: faults ride a 500, still with an envelope body;
  // both paths carry the SOAP content type. The body leaves as a segment
  // chain: wire-backed envelopes share the received buffer, and the others
  // serialize into a per-worker scratch buffer whose capacity survives
  // across requests (wire_chain reallocates it when a previous response
  // still holds it).
  thread_local std::shared_ptr<std::string> scratch;
  net::HttpResponse http;
  if (response.is_fault()) {
    http.status = 500;
    http.reason = "Internal Server Error";
  }
  http.headers["Content-Type"] = "application/soap+xml";
  response.wire_chain(http.body_chain, &scratch);
  return http;
}

}  // namespace

std::string request_tenant(const PipelineContext& ctx) {
  if (ctx.http_request) {
    if (auto it = ctx.http_request->headers.find("X-GS-Tenant");
        it != ctx.http_request->headers.end() && !it->second.empty()) {
      return it->second;
    }
  }
  return "anon";
}

void Handler::Next::operator()(PipelineContext& ctx) const {
  chain_->run_from(ctx, index_);
}

HandlerChain& HandlerChain::append(std::shared_ptr<Handler> handler) {
  handlers_.push_back(std::move(handler));
  return *this;
}

size_t HandlerChain::index_of(std::string_view name) const {
  for (size_t i = 0; i < handlers_.size(); ++i) {
    if (name == handlers_[i]->name()) return i;
  }
  return handlers_.size();
}

HandlerChain& HandlerChain::insert_before(std::string_view name,
                                          std::shared_ptr<Handler> handler) {
  size_t at = index_of(name);
  if (at == handlers_.size()) {
    throw std::invalid_argument("no chain stage named '" + std::string(name) +
                                "'");
  }
  handlers_.insert(handlers_.begin() + static_cast<long>(at),
                   std::move(handler));
  return *this;
}

HandlerChain& HandlerChain::insert_after(std::string_view name,
                                         std::shared_ptr<Handler> handler) {
  size_t at = index_of(name);
  if (at == handlers_.size()) {
    throw std::invalid_argument("no chain stage named '" + std::string(name) +
                                "'");
  }
  handlers_.insert(handlers_.begin() + static_cast<long>(at) + 1,
                   std::move(handler));
  return *this;
}

void HandlerChain::run(PipelineContext& ctx) const { run_from(ctx, 0); }

void HandlerChain::run_from(PipelineContext& ctx, size_t index) const {
  if (index >= handlers_.size()) return;
  handlers_[index]->handle(ctx, Handler::Next(*this, index + 1));
}

// --- parse ------------------------------------------------------------------

void ParseHandler::handle(PipelineContext& ctx, Next next) {
  if (!ctx.http_request) {
    // In-process entry: the caller supplied the envelope already.
    next(ctx);
    return;
  }
  const ContainerMetrics& m = ctx.container.metrics();
  // Allocation probe: everything from parse through response serialization
  // runs on this thread, so thread-local deltas are this request's DOM
  // node and arena byte counts.
  xml::probe::AllocStats probe_before = xml::probe::snapshot();
  ctx.cost.request_bytes = ctx.http_request->body.size();
  auto parse_started = std::chrono::steady_clock::now();
  try {
    ctx.parsed = soap::Envelope::from_xml(ctx.http_request->body);
  } catch (const std::exception& e) {
    ctx.cost.parse_us = elapsed_us(parse_started);
    ctx.cost.fault = true;
    m.parse_us->record(ctx.cost.parse_us);
    m.faults->add();
    telemetry::EventLog::global().emit(
        telemetry::Level::kWarn, "container", "fault: malformed request body",
        {{"path", ctx.path}, {"error", e.what()}});
    ctx.http_response = net::HttpResponse::error(400, "Bad Request", e.what());
    ctx.http_done = true;
    return;
  }
  ctx.cost.parse_us = elapsed_us(parse_started);
  m.parse_us->record(ctx.cost.parse_us);
  ctx.request = &ctx.parsed;

  next(ctx);

  auto serialize_started = std::chrono::steady_clock::now();
  ctx.http_response = serialize_response(ctx.response);
  ctx.cost.serialize_us = elapsed_us(serialize_started);
  m.serialize_us->record(ctx.cost.serialize_us);
  ctx.http_done = true;
  ctx.cost.response_bytes = ctx.http_response.body_size();

  xml::probe::AllocStats probe_after = xml::probe::snapshot();
  ctx.cost.xml_nodes = probe_after.dom_nodes - probe_before.dom_nodes;
  ctx.cost.arena_bytes = probe_after.arena_bytes - probe_before.arena_bytes;
  m.nodes_per_request->record(ctx.cost.xml_nodes);
  m.arena_bytes->add(ctx.cost.arena_bytes);
}

// --- telemetry --------------------------------------------------------------

void TelemetryHandler::handle(PipelineContext& ctx, Next next) {
  // The dispatch span covers the inner stages: sweep, security, handler,
  // response signing. When the request carries a TraceContext header the
  // provisional spans on this thread (this one, and the enclosing
  // http.receive if the request came through a server) are re-rooted onto
  // the caller's trace.
  const ContainerMetrics& m = ctx.container.metrics();
  telemetry::SpanScope span("container.dispatch", "container",
                            &telemetry::TraceLog::global(), m.dispatch_us);
  if (auto remote = telemetry::read_trace_header(*ctx.request)) {
    telemetry::adopt_remote(*remote);
  }
  m.requests->add();

  next(ctx);

  // Echo the server-side trace context (the signature does not cover it).
  telemetry::write_trace_header(ctx.response, span.context());
}

// --- lifetime sweep ---------------------------------------------------------

void LifetimeSweepHandler::handle(PipelineContext& ctx, Next next) {
  // Scheduled terminations fire before the request sees any state.
  ctx.container.lifetime().sweep();
  next(ctx);
}

// --- resolve ----------------------------------------------------------------

void ResolveHandler::handle(PipelineContext& ctx, Next next) {
  ctx.service = ctx.container.registry().pin(ctx.path);
  if (!ctx.service) {
    const ContainerMetrics& m = ctx.container.metrics();
    m.faults->add();
    telemetry::EventLog::global().emit(
        telemetry::Level::kWarn, "container", "fault: no service deployed",
        {{"path", ctx.path}});
    ctx.response = soap::Envelope::make_fault(
        {"Sender", "no service deployed at " + ctx.path, "", ""});
    return;
  }
  ctx.rpc.request = ctx.request;
  ctx.rpc.info = ctx.request->read_addressing();
  next(ctx);
}

// --- security ---------------------------------------------------------------

void SecurityHandler::handle(PipelineContext& ctx, Next next) {
  const ContainerConfig& cfg = ctx.container.config();
  if (cfg.security != SecurityMode::kX509) {
    next(ctx);
    return;
  }
  const ContainerMetrics& m = ctx.container.metrics();
  std::optional<std::string> rejected;  // why verification failed
  {
    telemetry::SpanScope verify_span("security.verify", "container",
                                     &telemetry::TraceLog::global(), m.verify_us);
    try {
      ctx.rpc.identity =
          security::verify_envelope(*ctx.request, *cfg.anchor, cfg.clock->now());
    } catch (const security::SecurityError& e) {
      rejected = e.what();
    }
  }

  if (!rejected) {
    next(ctx);
  } else {
    m.faults->add();
    telemetry::EventLog::global().emit(
        telemetry::Level::kWarn, "container",
        "fault: security policy rejected request",
        {{"path", ctx.path}, {"error", *rejected}});
    ctx.response = soap::Envelope::make_fault(
        {"Sender", "security policy rejected request: " + *rejected, "", ""});
  }

  // The response, a rejection fault included, passes back through the
  // security handler (digital signature).
  telemetry::SpanScope sign_span("security.sign", "container",
                                 &telemetry::TraceLog::global(), m.sign_us);
  security::sign_envelope(ctx.response, *cfg.credential);
}

// --- dispatch ---------------------------------------------------------------

void DispatchHandler::handle(PipelineContext& ctx, Next next) {
  const ContainerMetrics& m = ctx.container.metrics();
  {
    telemetry::SpanScope handler_span("container.handler", "container",
                                      &telemetry::TraceLog::global(),
                                      m.handler_us);
    ctx.response = ctx.service->dispatch(ctx.rpc);
  }
  if (ctx.response.is_fault()) {
    m.faults->add();
    const soap::Fault& fault = ctx.response.fault();
    telemetry::EventLog::global().emit(
        telemetry::Level::kWarn, "container", "fault returned by handler",
        {{"path", ctx.path}, {"code", fault.code}, {"reason", fault.reason}});
  }
  next(ctx);
}

}  // namespace gs::container
