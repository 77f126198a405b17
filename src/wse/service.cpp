#include "wse/service.hpp"

#include "common/uuid.hpp"
#include "container/lifetime.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/propagation.hpp"
#include "telemetry/trace.hpp"

namespace gs::wse {

namespace {
xml::QName wse(const char* local) { return {soap::ns::kEventing, local}; }
constexpr const char* kWseImplNs = "http://gridstacks.dev/wse";

std::string subscription_id(const container::RequestContext& ctx) {
  std::optional<std::string> id = ctx.info.reference_header(identifier_qname());
  if (!id) {
    throw soap::SoapFault("Sender", "request carries no wse:Identifier header");
  }
  return *id;
}
}  // namespace

xml::QName identifier_qname() { return {kWseImplNs, "Identifier"}; }

WseSubscriptionManagerService::WseSubscriptionManagerService(
    SubscriptionStore& store, std::string address, const common::Clock& clock)
    : container::Service("WseSubscriptionManager"),
      store_(store),
      address_(std::move(address)),
      clock_(clock) {
  register_operation(actions::kRenew, [this](container::RequestContext& ctx) {
    std::string id = subscription_id(ctx);
    const xml::Element* expires_el = ctx.payload().child(wse("Expires"));
    if (!expires_el) throw soap::SoapFault("Sender", "Renew needs Expires");
    common::TimeMs expires =
        expires_el->text() == "infinite"
            ? WseSubscription::kNever
            : clock_.now() + container::parse_lifetime_ms(expires_el->text());
    if (!store_.renew(id, expires)) {
      throw soap::SoapFault("Sender", "unknown subscription '" + id + "'");
    }
    soap::Envelope response =
        container::make_response(ctx, actions::kRenew + "Response");
    response.add_payload(wse("RenewResponse"))
        .append_element(wse("Expires"))
        .set_text(expires == WseSubscription::kNever ? "infinite"
                                                     : std::to_string(expires));
    return response;
  });

  register_operation(actions::kGetStatus, [this](container::RequestContext& ctx) {
    std::string id = subscription_id(ctx);
    std::optional<WseSubscription> sub = store_.get(id);
    if (!sub) throw soap::SoapFault("Sender", "unknown subscription '" + id + "'");
    soap::Envelope response =
        container::make_response(ctx, actions::kGetStatus + "Response");
    response.add_payload(wse("GetStatusResponse"))
        .append_element(wse("Expires"))
        .set_text(sub->expires == WseSubscription::kNever
                      ? "infinite"
                      : std::to_string(sub->expires));
    return response;
  });

  register_operation(actions::kUnsubscribe, [this](container::RequestContext& ctx) {
    std::string id = subscription_id(ctx);
    if (!store_.remove(id)) {
      throw soap::SoapFault("Sender", "unknown subscription '" + id + "'");
    }
    soap::Envelope response =
        container::make_response(ctx, actions::kUnsubscribe + "Response");
    response.add_payload(wse("UnsubscribeResponse"));
    return response;
  });
}

soap::EndpointReference WseSubscriptionManagerService::epr_for(
    const std::string& id) const {
  soap::EndpointReference epr(address_);
  epr.add_reference_property(identifier_qname(), id);
  return epr;
}

EventSourceService::EventSourceService(std::string name, SubscriptionStore& store,
                                       WseSubscriptionManagerService& manager,
                                       const common::Clock& clock)
    : container::Service(std::move(name)),
      store_(store),
      manager_(manager),
      clock_(clock) {
  register_operation(actions::kSubscribe, [this](container::RequestContext& ctx) {
    const xml::Element& payload = ctx.payload();

    WseSubscription sub;
    const xml::Element* delivery = payload.child(wse("Delivery"));
    if (!delivery) throw soap::SoapFault("Sender", "Subscribe needs Delivery");
    // Delivery modes are an extension point; only push is defined, and an
    // unsupported mode is a spec-defined fault.
    sub.delivery_mode = delivery->attr("Mode").value_or(kPushMode);
    if (sub.delivery_mode != kPushMode) {
      soap::Fault fault;
      fault.code = "Sender";
      fault.subcode = "wse:DeliveryModeRequestedUnavailable";
      fault.reason = "only the Push delivery mode is supported";
      throw soap::SoapFault(std::move(fault));
    }
    const xml::Element* notify_to = delivery->child(wse("NotifyTo"));
    if (!notify_to) throw soap::SoapFault("Sender", "Delivery needs NotifyTo");
    sub.notify_to = soap::EndpointReference::from_xml(*notify_to);

    if (const xml::Element* end_to = payload.child(wse("EndTo"))) {
      sub.end_to = soap::EndpointReference::from_xml(*end_to);
    }
    if (const xml::Element* filter = payload.child(wse("Filter"))) {
      try {
        sub.dialect = dialect_from_uri(filter->attr("Dialect").value_or(""));
      } catch (const std::invalid_argument& e) {
        soap::Fault fault;
        fault.code = "Sender";
        fault.subcode = "wse:FilteringRequestedUnavailable";
        fault.reason = e.what();
        throw soap::SoapFault(std::move(fault));
      }
      sub.filter = filter->text();
      if (sub.dialect == FilterDialect::kXPath) {
        try {
          sub.xpath = compile_filter(sub.filter);  // kept for delivery
        } catch (const xml::XPathError& e) {
          throw soap::SoapFault("Sender", std::string("bad filter: ") + e.what());
        }
      }
    }
    sub.expires = WseSubscription::kNever;
    if (const xml::Element* expires = payload.child(wse("Expires"))) {
      if (expires->text() != "infinite") {
        sub.expires = clock_.now() + container::parse_lifetime_ms(expires->text());
      }
    }
    common::TimeMs granted = sub.expires;
    std::string id = store_.add(std::move(sub));

    soap::Envelope response =
        container::make_response(ctx, actions::kSubscribe + "Response");
    xml::Element& body = response.add_payload(wse("SubscribeResponse"));
    body.append(manager_.epr_for(id).to_xml(wse("SubscriptionManager")));
    body.append_element(wse("Expires"))
        .set_text(granted == WseSubscription::kNever ? "infinite"
                                                     : std::to_string(granted));
    return response;
  });
}

NotificationManager::NotificationManager(SubscriptionStore& store,
                                         net::SoapCaller& sink_caller,
                                         const common::Clock& clock)
    : NotificationManager(store, sink_caller, clock, Options{}) {}

NotificationManager::NotificationManager(SubscriptionStore& store,
                                         net::SoapCaller& sink_caller,
                                         const common::Clock& clock,
                                         Options options)
    : store_(store),
      clock_(clock),
      queue_(net::DeliveryQueue::Config{
          .caller = &sink_caller,
          .evict_after_consecutive_failures = options.evict_after_failures,
          .delivered = &telemetry::MetricsRegistry::global().counter("wse.events"),
          .failures = &telemetry::MetricsRegistry::global().counter(
              "wse.delivery_failures"),
          .deliver_us =
              &telemetry::MetricsRegistry::global().histogram("wse.deliver_us"),
          .evictions = &telemetry::MetricsRegistry::global().counter(
              "wse.sinks_evicted"),
          .dead_letters =
              &telemetry::MetricsRegistry::global().counter("wse.dead_letters"),
          .events = &telemetry::EventLog::global(),
          .component = "wse.delivery",
      }) {}

size_t NotificationManager::notify(const std::string& topic,
                                   const xml::Element& event,
                                   const std::string& action) {
  // Expired subscriptions get SubscriptionEnd before delivery fans out.
  // These ride the same queue as events, so a dark EndTo sink is subject
  // to the same failure accounting.
  for (const WseSubscription& ended : store_.purge_expired(clock_.now())) {
    if (ended.end_to.empty()) continue;
    soap::Envelope env;
    soap::MessageInfo info;
    info.target(ended.end_to);
    info.action = actions::kSubscriptionEnd;
    info.message_id = common::new_urn_uuid();
    env.write_addressing(std::move(info));
    xml::Element& end = env.add_payload(wse("SubscriptionEnd"));
    end.append_element(wse("Status")).set_text("SourceCancelling");
    queue_.submit(ended.end_to.address(), env);
  }

  size_t delivered = 0;
  for (const SubscriptionStore::Entry& entry : store_.active(clock_.now())) {
    const WseSubscription& sub = *entry;
    if (!sub.accepts(topic, event)) continue;
    soap::Envelope env;
    soap::MessageInfo info;
    info.target(sub.notify_to);
    info.action = action;
    info.message_id = common::new_urn_uuid();
    env.write_addressing(std::move(info));
    // WS-Eventing events are plain messages — the event document is the
    // body, no Notify wrapper.
    env.add_payload(event.clone_element());
    telemetry::SpanScope span("wse.deliver", "delivery");
    telemetry::write_trace_header(env, span.context());
    net::DeliveryQueue::Submit result =
        queue_.submit(sub.notify_to.address(), env);
    if (result != net::DeliveryQueue::Submit::kRejected) ++delivered;
  }
  return delivered;
}

}  // namespace gs::wse
