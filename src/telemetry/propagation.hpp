// Trace-context carriage in SOAP headers.
//
// The TraceContext rides next to the WS-Addressing headers the same way
// MessageID/RelatesTo do: the sender stamps its trace id and span id, and
// the receiver's span becomes a child of the sender's — the cross-stack
// analogue of RelatesTo echoing the request MessageID. The header is NOT
// covered by the X.509 message signature (which signs Body plus the four
// wsa headers), so telemetry can be added or dropped by intermediaries
// without invalidating signed messages.
//
// Header-only: used by both the client proxy (gs_container) and the
// telemetry service (gs_telemetry_service) without creating a library
// cycle between them.
#pragma once

#include <optional>
#include <string>

#include "common/parse.hpp"
#include "soap/envelope.hpp"
#include "telemetry/trace.hpp"
#include "xml/qname.hpp"

namespace gs::telemetry {

inline constexpr const char* kTelemetryNs = "http://gridstacks.dev/telemetry";

inline const xml::QName& trace_header_qname() {
  static const xml::QName name{kTelemetryNs, "TraceContext"};
  return name;
}

/// Stamps (or restamps) the envelope with the sender's trace context:
/// `<t:TraceContext TraceId=".." SpanId=".."/>` as the last SOAP header,
/// replacing an earlier stamp.
inline void write_trace_header(soap::Envelope& env, const TraceContext& ctx) {
  if (!ctx.valid()) return;
  auto el = std::make_unique<xml::Element>(trace_header_qname());
  el->set_attr("TraceId", std::to_string(ctx.trace_id));
  el->set_attr("SpanId", std::to_string(ctx.span_id));
  env.replace_header(std::move(el));
}

/// Reads the trace context off an envelope; nullopt when absent/malformed
/// (strict parse: trailing junk is malformed, not a truncated id).
/// header_child_attr answers from the wire view on the fast path — this
/// read allocates no DOM nodes for a freshly parsed request.
inline std::optional<TraceContext> read_trace_header(const soap::Envelope& env) {
  auto trace_id = env.header_child_attr(trace_header_qname(), "TraceId");
  auto span_id = env.header_child_attr(trace_header_qname(), "SpanId");
  if (!trace_id && !span_id) return std::nullopt;
  TraceContext ctx;
  ctx.trace_id =
      common::parse_number<std::uint64_t>(trace_id.value_or("0")).value_or(0);
  ctx.span_id =
      common::parse_number<std::uint64_t>(span_id.value_or("0")).value_or(0);
  if (!ctx.valid()) return std::nullopt;
  return ctx;
}

}  // namespace gs::telemetry
