#include "wse/client.hpp"

#include "container/lifetime.hpp"

namespace gs::wse {

namespace {
xml::QName wse(const char* local) { return {soap::ns::kEventing, local}; }

common::TimeMs parse_expires(const xml::Element* expires) {
  if (!expires) throw soap::SoapFault("Receiver", "response missing Expires");
  return expires->text() == "infinite"
             ? WseSubscription::kNever
             : container::parse_lifetime_ms(expires->text());
}
}  // namespace

EventSourceProxy::SubscriptionHandle EventSourceProxy::subscribe(
    const soap::EndpointReference& notify_to, FilterDialect dialect,
    const std::string& filter, std::int64_t duration_ms,
    const soap::EndpointReference& end_to) {
  auto request = std::make_unique<xml::Element>(wse("Subscribe"));
  if (!end_to.empty()) request->append(end_to.to_xml(wse("EndTo")));
  xml::Element& delivery = request->append_element(wse("Delivery"));
  delivery.set_attr("Mode", kPushMode);
  delivery.append(notify_to.to_xml(wse("NotifyTo")));
  if (duration_ms >= 0) {
    request->append_element(wse("Expires")).set_text(std::to_string(duration_ms));
  }
  if (dialect != FilterDialect::kNone) {
    xml::Element& f = request->append_element(wse("Filter"));
    f.set_attr("Dialect", dialect_uri(dialect));
    f.set_text(filter);
  }

  const soap::Envelope response = invoke(actions::kSubscribe, std::move(request));
  const xml::Element* payload = response.payload();
  const xml::Element* manager =
      payload ? payload->child(wse("SubscriptionManager")) : nullptr;
  if (!manager) throw soap::SoapFault("Receiver", "malformed Subscribe response");

  SubscriptionHandle handle;
  handle.manager = soap::EndpointReference::from_xml(*manager);
  handle.expires = parse_expires(payload->child(wse("Expires")));
  return handle;
}

common::TimeMs WseSubscriptionProxy::renew(std::int64_t duration_ms) {
  auto request = std::make_unique<xml::Element>(wse("Renew"));
  request->append_element(wse("Expires"))
      .set_text(duration_ms < 0 ? "infinite" : std::to_string(duration_ms));
  const soap::Envelope response = invoke(actions::kRenew, std::move(request));
  const xml::Element* payload = response.payload();
  return parse_expires(payload ? payload->child(wse("Expires")) : nullptr);
}

common::TimeMs WseSubscriptionProxy::get_status() {
  const soap::Envelope response = invoke(
      actions::kGetStatus, std::make_unique<xml::Element>(wse("GetStatus")));
  const xml::Element* payload = response.payload();
  return parse_expires(payload ? payload->child(wse("Expires")) : nullptr);
}

void WseSubscriptionProxy::unsubscribe() {
  invoke(actions::kUnsubscribe, std::make_unique<xml::Element>(wse("Unsubscribe")));
}

}  // namespace gs::wse
