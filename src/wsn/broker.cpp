#include "wsn/broker.hpp"

#include "wsrf/base_faults.hpp"

namespace gs::wsn {

namespace {
xml::QName wsnt(const char* local) { return {soap::ns::kWsnBase, local}; }
xml::QName wsnbr(const char* local) { return {soap::ns::kWsnBroker, local}; }
}  // namespace

BrokerService::BrokerService(Config config, wsrf::ResourceHome& registrations,
                             TopicNamespace topics)
    : wsrf::WsrfService("NotificationBroker", registrations, wsrf::PropertySet{},
                        config.address),
      config_(config),
      producer_(NotificationProducer::Config{config.caller, config.address,
                                             config.manager, config.clock},
                std::move(topics)) {
  if (!config_.caller || !config_.manager) {
    throw std::invalid_argument("BrokerService needs a caller and a manager");
  }

  // Consumer-facing Subscribe.
  producer_.register_into(*this);
  producer_.on_subscribed([this] { recheck_demand(); });

  // Registration destruction (WS-ResourceLifetime on registration EPRs).
  import_resource_lifetime();

  // Publisher-facing Notify: re-publish to our subscribers.
  register_operation(actions::kNotify, [this](container::RequestContext& ctx) {
    handle_notify(ctx);
    soap::Envelope response =
        container::make_response(ctx, actions::kNotify + "Response");
    response.add_payload(wsnt("NotifyResponse"));
    return response;
  });

  register_operation(broker_actions::kRegisterPublisher,
                     [this](container::RequestContext& ctx) {
                       soap::Envelope response = container::make_response(
                           ctx, broker_actions::kRegisterPublisher + "Response");
                       handle_register(ctx, response);
                       return response;
                     });
}

void BrokerService::handle_notify(container::RequestContext& ctx) {
  const xml::Element& payload = ctx.payload();
  if (payload.name() != wsnt("Notify")) {
    throw soap::SoapFault("Sender", "broker expects wrapped Notify messages");
  }
  for (const xml::Element* message :
       payload.children_named(wsnt("NotificationMessage"))) {
    const xml::Element* topic = message->child(wsnt("Topic"));
    const xml::Element* body = message->child(wsnt("Message"));
    if (!topic || !body) continue;
    auto kids = body->child_elements();
    if (kids.empty()) continue;
    producer_.notify(topic->text(), *kids.front());
  }
}

void BrokerService::handle_register(container::RequestContext& ctx,
                                    soap::Envelope& response) {
  const xml::Element& payload = ctx.payload();
  const xml::Element* publisher_el = payload.child(wsnbr("PublisherReference"));
  if (!publisher_el) {
    throw soap::SoapFault("Sender", "RegisterPublisher needs a PublisherReference");
  }
  soap::EndpointReference publisher =
      soap::EndpointReference::from_xml(*publisher_el);

  std::vector<std::string> topics;
  for (const xml::Element* t : payload.children_named(wsnbr("Topic"))) {
    topics.push_back(t->text());
  }
  if (topics.empty()) {
    throw soap::SoapFault("Sender", "RegisterPublisher needs at least one Topic");
  }
  bool demand = false;
  if (const xml::Element* d = payload.child(wsnbr("Demand"))) {
    demand = d->text() == "true";
  }

  // Broker subscribes back to the publisher for the registered topics.
  // (One publisher-side subscription per topic keeps pause/resume
  // per-topic, which is what demand-based publishing requires.)
  container::ProxySecurity sec;  // broker-internal traffic is unsigned
  auto registration = std::make_unique<xml::Element>(wsnbr("Registration"));
  registration->append(publisher.to_xml(wsnbr("PublisherReference")));
  registration->append_element(wsnbr("Demand")).set_text(demand ? "true" : "false");

  for (const std::string& topic : topics) {
    NotificationProducerProxy proxy(*config_.caller, publisher, sec);
    Filter filter;
    filter.set_topic(
        TopicExpression::parse(TopicExpression::Dialect::kConcrete, topic));
    soap::EndpointReference consumer(config_.address);
    soap::EndpointReference sub_epr = proxy.subscribe(consumer, filter);

    bool active = producer_.has_active_subscriber(topic);
    if (demand && !active) {
      SubscriptionProxy sub(*config_.caller, sub_epr, sec);
      sub.pause();
    }
    xml::Element& entry = registration->append_element(wsnbr("TopicSubscription"));
    entry.append_element(wsnbr("Topic")).set_text(topic);
    entry.append(sub_epr.to_xml(wsnbr("SubscriptionEPR")));
    entry.append_element(wsnbr("PublisherPaused"))
        .set_text(demand && !active ? "true" : "false");
  }

  std::string id = home().create(std::move(registration));
  response.add_payload(
      home().epr_for(id, address()).to_xml(wsnbr("RegistrationEPR")));
}

void BrokerService::recheck_demand() {
  container::ProxySecurity sec;
  for (const std::string& id : home().ids()) {
    auto state = home().try_load(id);
    if (!state) continue;
    const xml::Element* demand_el = state->child(wsnbr("Demand"));
    if (!demand_el || demand_el->text() != "true") continue;

    bool changed = false;
    for (const xml::Element* entry :
         state->children_named(wsnbr("TopicSubscription"))) {
      const xml::Element* topic_el = entry->child(wsnbr("Topic"));
      const xml::Element* sub_el = entry->child(wsnbr("SubscriptionEPR"));
      const xml::Element* paused_el = entry->child(wsnbr("PublisherPaused"));
      if (!topic_el || !sub_el || !paused_el) continue;

      bool paused = paused_el->text() == "true";
      bool want_active = producer_.has_active_subscriber(topic_el->text());
      if (want_active == paused) {
        // State flip needed: resume when demand appeared, pause when the
        // last consumer went away.
        SubscriptionProxy sub(*config_.caller,
                              soap::EndpointReference::from_xml(*sub_el), sec);
        if (want_active) {
          sub.resume();
        } else {
          sub.pause();
        }
        // Record the new state (the document is ours; mutate and save).
        const_cast<xml::Element*>(paused_el)
            ->set_text(want_active ? "false" : "true");
        changed = true;
      }
    }
    if (changed) home().save(id, *state);
  }
}

soap::EndpointReference BrokerProxy::register_publisher(
    const soap::EndpointReference& publisher_producer,
    const std::vector<std::string>& topics, bool demand_based) {
  auto request = std::make_unique<xml::Element>(wsnbr("RegisterPublisher"));
  request->append(publisher_producer.to_xml(wsnbr("PublisherReference")));
  for (const std::string& topic : topics) {
    request->append_element(wsnbr("Topic")).set_text(topic);
  }
  request->append_element(wsnbr("Demand"))
      .set_text(demand_based ? "true" : "false");

  const soap::Envelope response =
      invoke(broker_actions::kRegisterPublisher, std::move(request));
  const xml::Element* epr = response.payload();
  if (!epr || epr->name() != wsnbr("RegistrationEPR")) {
    throw soap::SoapFault("Receiver", "malformed RegisterPublisher response");
  }
  return soap::EndpointReference::from_xml(*epr);
}

}  // namespace gs::wsn
