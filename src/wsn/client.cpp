#include "wsn/client.hpp"

namespace gs::wsn {

namespace {
xml::QName wsnt(const char* local) { return {soap::ns::kWsnBase, local}; }
}  // namespace

soap::EndpointReference NotificationProducerProxy::subscribe(
    const soap::EndpointReference& consumer, const Filter& filter,
    std::int64_t initial_lifetime_ms, bool use_raw) {
  auto request = std::make_unique<xml::Element>(wsnt("Subscribe"));
  request->append(consumer.to_xml(wsnt("ConsumerReference")));
  request->append(filter.to_xml(wsnt("Filter")));
  if (initial_lifetime_ms >= 0) {
    request->append_element(wsnt("InitialTerminationTime"))
        .set_text(std::to_string(initial_lifetime_ms));
  }
  if (use_raw) request->append_element(wsnt("UseRaw")).set_text("true");

  const soap::Envelope response = invoke(actions::kSubscribe, std::move(request));
  const xml::Element* payload = response.payload();
  const xml::Element* sub_ref =
      payload ? payload->child(wsnt("SubscriptionReference")) : nullptr;
  if (!sub_ref) {
    throw soap::SoapFault("Receiver", "malformed Subscribe response");
  }
  return soap::EndpointReference::from_xml(*sub_ref);
}

std::unique_ptr<xml::Element> NotificationProducerProxy::get_current_message(
    const std::string& topic) {
  auto request = std::make_unique<xml::Element>(wsnt("GetCurrentMessage"));
  request->append_element(wsnt("Topic")).set_text(topic);
  const soap::Envelope response = invoke(actions::kGetCurrentMessage, std::move(request));
  const xml::Element* payload = response.payload();
  const xml::Element* message =
      payload ? payload->child(wsnt("Message")) : nullptr;
  if (!message) {
    throw soap::SoapFault("Receiver", "malformed GetCurrentMessage response");
  }
  auto kids = message->child_elements();
  return kids.empty() ? nullptr : kids.front()->clone_element();
}

void SubscriptionProxy::pause() {
  invoke(actions::kPauseSubscription,
         std::make_unique<xml::Element>(wsnt("PauseSubscription")));
}

void SubscriptionProxy::resume() {
  invoke(actions::kResumeSubscription,
         std::make_unique<xml::Element>(wsnt("ResumeSubscription")));
}

}  // namespace gs::wsn
