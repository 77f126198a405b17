// WS-Eventing services: event source and subscription manager.
//
// Mirrors the Plumbwork Orange structure the paper used: an Event Source
// Service exposing Subscribe, a Subscription Manager Service (possibly the
// same web service) with Unsubscribe/GetStatus/Renew, a filtering facility,
// and a Notification Manager helper "not defined in the spec" that event
// sources use to trigger delivery.
#pragma once

#include "container/service.hpp"
#include "net/delivery_queue.hpp"
#include "net/virtual_network.hpp"
#include "soap/namespaces.hpp"
#include "wse/store.hpp"

namespace gs::wse {

namespace actions {
const std::string kSubscribe = std::string(soap::ns::kEventing) + "/Subscribe";
const std::string kRenew = std::string(soap::ns::kEventing) + "/Renew";
const std::string kGetStatus = std::string(soap::ns::kEventing) + "/GetStatus";
const std::string kUnsubscribe = std::string(soap::ns::kEventing) + "/Unsubscribe";
const std::string kSubscriptionEnd =
    std::string(soap::ns::kEventing) + "/SubscriptionEnd";
}  // namespace actions

/// The only spec-defined delivery mode.
inline constexpr const char* kPushMode =
    "http://schemas.xmlsoap.org/ws/2004/08/eventing/DeliveryModes/Push";

/// The EPR reference property identifying a subscription at its manager
/// (wse:Identifier in the spec).
xml::QName identifier_qname();

/// Subscription manager: Renew / GetStatus / Unsubscribe over a shared
/// SubscriptionStore.
class WseSubscriptionManagerService : public container::Service {
 public:
  WseSubscriptionManagerService(SubscriptionStore& store, std::string address,
                                const common::Clock& clock);

  const std::string& address() const noexcept { return address_; }
  soap::EndpointReference epr_for(const std::string& id) const;

 private:
  SubscriptionStore& store_;
  std::string address_;
  const common::Clock& clock_;
};

/// Event source: Subscribe. Delegates storage to the manager's store (the
/// manager "may be the same web service as the event source, or a separate
/// service" — both wirings work since the store is shared).
class EventSourceService : public container::Service {
 public:
  EventSourceService(std::string name, SubscriptionStore& store,
                     WseSubscriptionManagerService& manager,
                     const common::Clock& clock);

 private:
  SubscriptionStore& store_;
  WseSubscriptionManagerService& manager_;
  const common::Clock& clock_;
};

/// The Plumbwork-style Notification Manager: "a convenient tool for an
/// event source to trigger notifications".
class NotificationManager {
 public:
  /// Delivery reliability. Delivery is inline on the publishing thread.
  /// With a threshold, a sink that fails that many consecutive call
  /// sequences is evicted (wse.sinks_evicted, dead messages tallied in
  /// wse.dead_letters); the default never evicts. Wrap `sink_caller` in a
  /// net::RetryingCaller to retry transport failures within each sequence.
  struct Options {
    int evict_after_failures = 0;  // consecutive; 0 = never evict
  };

  NotificationManager(SubscriptionStore& store, net::SoapCaller& sink_caller,
                      const common::Clock& clock);
  NotificationManager(SubscriptionStore& store, net::SoapCaller& sink_caller,
                      const common::Clock& clock, Options options);

  /// Delivers `event` to every live subscription whose filter accepts
  /// (topic, event), through the per-sink delivery queue. `action` is the
  /// wsa:Action stamped on the event messages. Returns the number
  /// delivered. Expired subscriptions are purged and their EndTo sinks
  /// receive SubscriptionEnd.
  size_t notify(const std::string& topic, const xml::Element& event,
                const std::string& action);

  /// The reliability queue (eviction state, dead-letter tally,
  /// reinstating a sink after re-subscribe).
  net::DeliveryQueue& delivery_queue() noexcept { return queue_; }

 private:
  SubscriptionStore& store_;
  const common::Clock& clock_;
  net::DeliveryQueue queue_;
};

}  // namespace gs::wse
