#include "wsn/producer.hpp"

#include "common/uuid.hpp"
#include "container/lifetime.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/propagation.hpp"
#include "telemetry/trace.hpp"
#include "wsrf/base_faults.hpp"

namespace gs::wsn {

namespace {
xml::QName wsnt(const char* local) { return {soap::ns::kWsnBase, local}; }
}  // namespace

NotificationProducer::NotificationProducer(Config config, TopicNamespace topics)
    : config_(config), topics_(std::move(topics)) {
  if (!config_.sink_caller || !config_.manager) {
    throw std::invalid_argument(
        "NotificationProducer needs a sink caller and a subscription manager");
  }
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  queue_ = std::make_unique<net::DeliveryQueue>(net::DeliveryQueue::Config{
      .caller = config_.sink_caller,
      .evict_after_consecutive_failures = config_.evict_after_failures,
      .delivered = &registry.counter("wsn.notifications"),
      .failures = &registry.counter("wsn.delivery_failures"),
      .deliver_us = &registry.histogram("wsn.deliver_us"),
      .evictions = &registry.counter("wsn.subscribers_evicted"),
      .dead_letters = &registry.counter("wsn.dead_letters"),
      .events = &telemetry::EventLog::global(),
      .component = "wsn.delivery",
  });
}

void NotificationProducer::register_into(container::Service& service) {
  service.register_operation(actions::kSubscribe, [this](
                                 container::RequestContext& ctx) {
    const xml::Element& payload = ctx.payload();
    const xml::Element* consumer_el = payload.child(wsnt("ConsumerReference"));
    if (!consumer_el) {
      throw soap::SoapFault("Sender", "Subscribe needs a ConsumerReference");
    }

    Subscription sub;
    sub.consumer = soap::EndpointReference::from_xml(*consumer_el);
    if (const xml::Element* filter_el = payload.child(wsnt("Filter"))) {
      try {
        sub.filter = Filter::from_xml(*filter_el);
      } catch (const TopicError& e) {
        throw soap::SoapFault("Sender", e.what());
      } catch (const xml::XPathError& e) {
        throw soap::SoapFault("Sender", e.what());
      }
    }
    // Producers reject topics outside their topic space (concrete/simple
    // dialects can be validated up front; full-dialect expressions must
    // match at least one supported topic).
    if (sub.filter.topic()) {
      if (topics_.expand(*sub.filter.topic()).empty()) {
        throw soap::SoapFault("Sender", "topic expression '" +
                                            sub.filter.topic()->text() +
                                            "' matches no supported topic");
      }
    }
    if (const xml::Element* raw = payload.child(wsnt("UseRaw"))) {
      sub.use_raw = raw->text() != "false";
    }
    common::TimeMs termination = container::LifetimeManager::kNever;
    if (const xml::Element* t = payload.child(wsnt("InitialTerminationTime"))) {
      if (t->text() != "infinity") {
        // Relative lifetime in milliseconds from now; strictly validated
        // so client garbage faults instead of escaping std::stoll.
        termination = config_.clock->now() + container::parse_lifetime_ms(t->text());
      }
    }

    // A fresh Subscribe is evidence the sink is meant to be reachable:
    // forgive any earlier eviction of this consumer address.
    queue_->reinstate(sub.consumer.address());

    soap::EndpointReference sub_epr =
        config_.manager->store(std::move(sub), termination);

    soap::Envelope response =
        container::make_response(ctx, actions::kSubscribe + "Response");
    xml::Element& body = response.add_payload(wsnt("SubscribeResponse"));
    body.append(sub_epr.to_xml(wsnt("SubscriptionReference")));

    for (const auto& hook : subscribe_hooks_) hook();
    return response;
  });

  service.register_operation(
      actions::kGetCurrentMessage, [this](container::RequestContext& ctx) {
        const xml::Element* topic_el = ctx.payload().child(wsnt("Topic"));
        if (!topic_el) {
          throw soap::SoapFault("Sender", "GetCurrentMessage needs a Topic");
        }
        std::string topic = topic_el->text();
        if (!topics_.contains(topic)) {
          throw soap::SoapFault("Sender",
                                "unsupported topic '" + topic + "'");
        }
        soap::Envelope response = container::make_response(
            ctx, actions::kGetCurrentMessage + "Response");
        xml::Element& body =
            response.add_payload(wsnt("GetCurrentMessageResponse"));
        std::lock_guard lock(current_mu_);
        auto it = current_.find(topic);
        if (it == current_.end()) {
          // Spec: a fault when no message has been published on the topic.
          throw soap::SoapFault("Sender", "no current message on topic '" +
                                              topic + "'");
        }
        body.append_element(wsnt("Topic")).set_text(topic);
        body.append_element(wsnt("Message")).append(it->second->clone());
        return response;
      });
}

soap::Envelope make_notify_envelope(const std::string& topic,
                                    const xml::Element& payload,
                                    const std::string& producer_address,
                                    const soap::EndpointReference& consumer) {
  soap::Envelope env;
  soap::MessageInfo info;
  info.target(consumer);
  info.action = actions::kNotify;
  info.message_id = common::new_urn_uuid();
  env.write_addressing(std::move(info));

  xml::Element& notify = env.add_payload(wsnt("Notify"));
  xml::Element& message = notify.append_element(wsnt("NotificationMessage"));
  message.append_element(wsnt("Topic")).set_text(topic);
  soap::EndpointReference producer(producer_address);
  message.append(producer.to_xml(wsnt("ProducerReference")));
  message.append_element(wsnt("Message")).append(payload.clone());
  return env;
}

soap::Envelope make_raw_notify_envelope(const xml::Element& payload,
                                        const soap::EndpointReference& consumer) {
  soap::Envelope env;
  soap::MessageInfo info;
  info.target(consumer);
  info.action = actions::kNotify;
  info.message_id = common::new_urn_uuid();
  env.write_addressing(std::move(info));
  env.add_payload(payload.clone_element());
  return env;
}

size_t NotificationProducer::notify(const std::string& topic,
                                    const xml::Element& payload,
                                    const xml::Element* producer_properties) {
  {
    // Record the current message for GetCurrentMessage pulls.
    std::lock_guard lock(current_mu_);
    current_[topic] = payload.clone_element();
  }
  size_t delivered = 0;
  for (const SubscriptionManagerService::Entry& entry :
       config_.manager->subscriptions()) {
    const Subscription& sub = *entry;
    if (sub.paused) continue;
    if (!sub.filter.accepts(topic, payload, producer_properties)) continue;
    soap::Envelope env =
        sub.use_raw
            ? make_raw_notify_envelope(payload, sub.consumer)
            : make_notify_envelope(topic, payload, config_.producer_address,
                                   sub.consumer);
    telemetry::SpanScope span("wsn.deliver", "delivery");
    telemetry::write_trace_header(env, span.context());
    // Delivery is the queue's business now: retries happen inside the
    // sink caller, failure accounting and eviction inside the queue. An
    // unreachable consumer still cannot fail the publish or starve the
    // other subscribers.
    net::DeliveryQueue::Submit result =
        queue_->submit(sub.consumer.address(), env);
    if (result != net::DeliveryQueue::Submit::kRejected) ++delivered;
  }
  return delivered;
}

bool NotificationProducer::has_active_subscriber(const std::string& topic) const {
  for (const SubscriptionManagerService::Entry& sub :
       config_.manager->subscriptions()) {
    if (sub->paused) continue;
    if (!sub->filter.topic() || sub->filter.topic()->matches(topic)) return true;
  }
  return false;
}

}  // namespace gs::wsn
