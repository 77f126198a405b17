#include "container/proxy.hpp"

#include "common/uuid.hpp"
#include "telemetry/propagation.hpp"
#include "telemetry/trace.hpp"

namespace gs::container {

soap::Envelope ProxyBase::invoke(const std::string& action,
                                 std::unique_ptr<xml::Element> payload) const {
  return do_invoke(action, std::move(payload), nullptr);
}

soap::Envelope ProxyBase::invoke_with_reply_to(
    const std::string& action, std::unique_ptr<xml::Element> payload,
    const soap::EndpointReference& reply_to) const {
  return do_invoke(action, std::move(payload), &reply_to);
}

soap::Envelope ProxyBase::do_invoke(const std::string& action,
                                    std::unique_ptr<xml::Element> payload,
                                    const soap::EndpointReference* reply_to) const {
  // Client-side span: the server adopts its trace id from the carried
  // header, so per-hop timings line up under one trace.
  telemetry::SpanScope span("client.invoke", "client");

  soap::Envelope request;
  soap::MessageInfo info;
  info.target(target_);
  info.action = action;
  info.message_id = common::new_urn_uuid();
  if (reply_to) info.reply_to = *reply_to;
  request.write_addressing(std::move(info));
  telemetry::write_trace_header(request, span.context());
  if (payload) request.add_payload(std::move(payload));

  if (security_.credential) {
    security::sign_envelope(request, *security_.credential);
  }

  soap::Envelope response = caller_.call(target_.address(), request);

  if (security_.anchor) {
    // Verify the response signature even for faults — an unsigned fault
    // from an X.509-mode service is itself a security failure.
    security::verify_envelope(response, *security_.anchor, security_.clock->now());
  }
  response.throw_if_fault();
  return response;
}

}  // namespace gs::container
