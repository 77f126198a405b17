// WS-BaseNotification SubscriptionManager service.
//
// "Each subscription is managed by a Subscription Manager Service (which
// may be the same as the Notification Producer)." Subscriptions are
// WS-Resources: the manager is a WSRF service whose resource type is the
// subscription, so unsubscribe is WS-ResourceLifetime Destroy and clients
// can bound subscription lifetime with InitialTerminationTime /
// SetTerminationTime. Pause/Resume are the WSN-specific additions.
//
// Note the paper's observation: WSN has no standard *create* for
// subscriptions — they come into existence only through the producer's
// Subscribe, an idiosyncratic interface the spec does not pin down.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "soap/addressing.hpp"
#include "wsn/filter.hpp"
#include "wsrf/service.hpp"

namespace gs::wsn {

namespace actions {
const std::string kSubscribe = std::string(soap::ns::kWsnBase) + "/Subscribe";
const std::string kNotify = std::string(soap::ns::kWsnBase) + "/Notify";
const std::string kPauseSubscription =
    std::string(soap::ns::kWsnBase) + "/PauseSubscription";
const std::string kResumeSubscription =
    std::string(soap::ns::kWsnBase) + "/ResumeSubscription";
const std::string kGetCurrentMessage =
    std::string(soap::ns::kWsnBase) + "/GetCurrentMessage";
}  // namespace actions

/// A subscription materialized from its resource document: the consumer
/// EPR and the parsed, compiled filter, ready to evaluate per event.
struct Subscription {
  std::string id;
  soap::EndpointReference consumer;
  Filter filter;
  bool paused = false;
  bool use_raw = false;  // "raw" delivery: payload without the Notify wrapper
};

/// Serializes a subscription to its resource document / back. Parsing
/// throws std::runtime_error (TopicError, xml::XPathError, a malformed
/// EPR) for a document that cannot be materialized.
std::unique_ptr<xml::Element> subscription_to_xml(const Subscription& sub);
Subscription subscription_from_xml(const std::string& id, const xml::Element& el);

/// The subscription documents in the resource home stay the durable
/// record; beside them the manager keeps a live table of materialized
/// subscriptions, so publishing reads no document and compiles no filter.
/// store() and recover() fill the table, set_paused() updates it, and the
/// home's destroy hook (Unsubscribe/Destroy, lifetime expiry) erases it.
class SubscriptionManagerService : public wsrf::WsrfService {
 public:
  using Entry = std::shared_ptr<const Subscription>;

  SubscriptionManagerService(wsrf::ResourceHome& home, std::string address);

  /// Stores a new subscription (invoked by producers' Subscribe) and
  /// enters it in the live table. Returns the subscription EPR.
  soap::EndpointReference store(Subscription sub, common::TimeMs termination_time);

  /// A snapshot of the live table (producers iterate this to deliver; the
  /// entries stay valid while the table changes underneath).
  std::vector<Entry> subscriptions() const;

  /// Flips the paused flag, in the document and the table (the wire ops
  /// use this too). False when the subscription does not exist.
  bool set_paused(const std::string& id, bool paused);

  /// Live-subscription count — producers use it to skip event
  /// construction entirely when nobody listens, one of the WSRF.NET-side
  /// optimizations the paper credits.
  size_t count() const;

  /// Rehydrates after a restart: re-registers lifetime handles for every
  /// persisted subscription (ResourceHome::recover) and rebuilds the table
  /// from the collection, parsing each document once. A document that
  /// cannot be materialized is left out of the table with a warn event,
  /// so one corrupt subscription cannot block delivery to the others.
  /// Run before taking traffic. Returns the number of live subscriptions.
  std::size_t recover();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> table_;
};

}  // namespace gs::wsn
