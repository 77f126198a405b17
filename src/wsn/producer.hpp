// WS-BaseNotification producer component.
//
// A NotificationProducer is "imported" into any service (the WSRF.NET
// port-type-aggregation model): it contributes the Subscribe operation and
// gives the service a server-side `notify()` for publishing. Delivery uses
// the configured SoapCaller — in the paper WSRF.NET delivered over HTTP to
// a custom client-side HTTP server, which is why WSN Notify measures slower
// than WS-Eventing's TCP delivery.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "container/service.hpp"
#include "net/delivery_queue.hpp"
#include "net/virtual_network.hpp"
#include "wsn/subscription_manager.hpp"
#include "wsn/topics.hpp"

namespace gs::wsn {

class NotificationProducer {
 public:
  struct Config {
    /// Transport used to push Notify messages to consumers. Wrap it in a
    /// net::RetryingCaller to retry transport failures.
    net::SoapCaller* sink_caller = nullptr;
    /// This producer's address (stamped into ProducerReference).
    std::string producer_address;
    /// Where subscriptions live (may be shared among producers).
    SubscriptionManagerService* manager = nullptr;
    /// Clock for InitialTerminationTime interpretation.
    const common::Clock* clock = &common::RealClock::instance();

    // --- delivery reliability -------------------------------------------------
    // All delivery routes through a per-subscriber net::DeliveryQueue, inline
    // on the publishing thread. Set a threshold to shed sinks that stay dark
    // (counted as wsn.subscribers_evicted, with every undeliverable message
    // tallied in wsn.dead_letters); the default never evicts.
    int evict_after_failures = 0;  // consecutive; 0 = never evict
  };

  NotificationProducer(Config config, TopicNamespace topics);

  /// Adds the Subscribe and GetCurrentMessage operations to `service`.
  /// GetCurrentMessage answers with the most recent notification published
  /// on a topic (pull-style recovery for late subscribers, per the spec).
  void register_into(container::Service& service);

  /// Publishes: evaluates every live subscription's filter against
  /// (topic, payload, producer_properties) and delivers to the accepting,
  /// non-paused ones through the delivery queue. Returns the number
  /// delivered; failed and evicted subscribers do not count.
  size_t notify(const std::string& topic, const xml::Element& payload,
                const xml::Element* producer_properties = nullptr);

  /// The reliability queue (tests inspect eviction state through this).
  net::DeliveryQueue& delivery_queue() noexcept { return *queue_; }

  /// True when some live, non-paused subscription would accept `topic`
  /// (the broker's demand test).
  bool has_active_subscriber(const std::string& topic) const;

  /// Invoked after every Subscribe (brokers recheck demand here).
  void on_subscribed(std::function<void()> hook) {
    subscribe_hooks_.push_back(std::move(hook));
  }

  const TopicNamespace& topics() const noexcept { return topics_; }
  SubscriptionManagerService& manager() noexcept { return *config_.manager; }

 private:
  Config config_;
  TopicNamespace topics_;
  std::unique_ptr<net::DeliveryQueue> queue_;
  std::vector<std::function<void()>> subscribe_hooks_;
  mutable std::mutex current_mu_;
  std::map<std::string, std::unique_ptr<xml::Element>> current_;  // per topic
};

/// Builds a wrapped Notify envelope (one NotificationMessage).
soap::Envelope make_notify_envelope(const std::string& topic,
                                    const xml::Element& payload,
                                    const std::string& producer_address,
                                    const soap::EndpointReference& consumer);
/// Builds a raw-delivery envelope: the payload as the entire body. The
/// paper flags this mode as an interoperability hazard — the message
/// carries no topic or producer context (tests demonstrate exactly that).
soap::Envelope make_raw_notify_envelope(const xml::Element& payload,
                                        const soap::EndpointReference& consumer);

}  // namespace gs::wsn
