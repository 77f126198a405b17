#include "wsn/subscription_manager.hpp"

#include "common/uuid.hpp"
#include "telemetry/event_log.hpp"
#include "wsrf/base_faults.hpp"

namespace gs::wsn {

namespace {
xml::QName wsnt(const char* local) { return {soap::ns::kWsnBase, local}; }
}  // namespace

std::unique_ptr<xml::Element> subscription_to_xml(const Subscription& sub) {
  auto el = std::make_unique<xml::Element>(wsnt("Subscription"));
  el->append(sub.consumer.to_xml(wsnt("ConsumerReference")));
  el->append(sub.filter.to_xml(wsnt("Filter")));
  el->append_element(wsnt("Paused")).set_text(sub.paused ? "true" : "false");
  el->append_element(wsnt("UseRaw")).set_text(sub.use_raw ? "true" : "false");
  return el;
}

Subscription subscription_from_xml(const std::string& id, const xml::Element& el) {
  Subscription sub;
  sub.id = id;
  const xml::Element* c = el.child(wsnt("ConsumerReference"));
  if (!c) throw std::runtime_error("subscription has no ConsumerReference");
  sub.consumer = soap::EndpointReference::from_xml(*c);
  if (const xml::Element* f = el.child(wsnt("Filter"))) {
    sub.filter = Filter::from_xml(*f);
  }
  if (const xml::Element* p = el.child(wsnt("Paused"))) {
    sub.paused = p->text() == "true";
  }
  if (const xml::Element* r = el.child(wsnt("UseRaw"))) {
    sub.use_raw = r->text() == "true";
  }
  return sub;
}

SubscriptionManagerService::SubscriptionManagerService(wsrf::ResourceHome& home,
                                                       std::string address)
    : wsrf::WsrfService("SubscriptionManager", home, wsrf::PropertySet{},
                        std::move(address)) {
  import_resource_properties();
  import_resource_lifetime();  // Destroy == unsubscribe; termination times work

  // Unsubscribe, Destroy and lifetime expiry all end here, after the
  // document is gone. The entry is freed outside the lock publishers take.
  home.on_destroyed([this](const std::string& id) {
    Entry erased;
    std::lock_guard lock(mu_);
    if (auto it = table_.find(id); it != table_.end()) {
      erased = std::move(it->second);
      table_.erase(it);
    }
  });

  register_operation(actions::kPauseSubscription,
                     [this](container::RequestContext& ctx) {
                       std::string id = resolve_resource(ctx);
                       if (!set_paused(id, true)) {
                         wsrf::throw_base_fault(wsrf::FaultType::kResourceUnknown,
                                                "no subscription '" + id + "'");
                       }
                       soap::Envelope response = container::make_response(
                           ctx, actions::kPauseSubscription + "Response");
                       response.add_payload(wsnt("PauseSubscriptionResponse"));
                       return response;
                     });

  register_operation(actions::kResumeSubscription,
                     [this](container::RequestContext& ctx) {
                       std::string id = resolve_resource(ctx);
                       if (!set_paused(id, false)) {
                         wsrf::throw_base_fault(wsrf::FaultType::kResourceUnknown,
                                                "no subscription '" + id + "'");
                       }
                       soap::Envelope response = container::make_response(
                           ctx, actions::kResumeSubscription + "Response");
                       response.add_payload(wsnt("ResumeSubscriptionResponse"));
                       return response;
                     });
}

soap::EndpointReference SubscriptionManagerService::store(
    Subscription sub, common::TimeMs termination_time) {
  sub.id = common::new_uuid();
  auto entry = std::make_shared<const Subscription>(std::move(sub));
  {
    // The stripe orders the table insert before any destroy of the new
    // document (an already-past termination time expires it at the next
    // sweep), so the destroy hook always finds the entry to erase.
    auto stripe = home().lock_resource(entry->id);
    home().create_with_id(entry->id, subscription_to_xml(*entry),
                          termination_time);
    std::lock_guard lock(mu_);
    table_.emplace(entry->id, entry);
  }
  return home().epr_for(entry->id, address());
}

std::vector<SubscriptionManagerService::Entry>
SubscriptionManagerService::subscriptions() const {
  std::lock_guard lock(mu_);
  std::vector<Entry> out;
  out.reserve(table_.size());
  for (const auto& [id, entry] : table_) out.push_back(entry);
  return out;
}

size_t SubscriptionManagerService::count() const {
  std::lock_guard lock(mu_);
  return table_.size();
}

std::size_t SubscriptionManagerService::recover() {
  home().recover();
  std::map<std::string, Entry, std::less<>> table;
  for (const std::string& id : home().ids()) {
    auto state = home().try_load(id);
    if (!state) continue;
    try {
      table.emplace(id, std::make_shared<const Subscription>(
                            subscription_from_xml(id, *state)));
    } catch (const std::runtime_error& e) {
      telemetry::EventLog::global().emit(
          telemetry::Level::kWarn, "wsn.subscriptions",
          "dropping unreadable subscription", {{"id", id}, {"error", e.what()}});
    }
  }
  std::lock_guard lock(mu_);
  table_ = std::move(table);
  return table_.size();
}

bool SubscriptionManagerService::set_paused(const std::string& id, bool paused) {
  // Under the stripe a destroy has either not removed the document yet
  // (and cannot until we release) or already has (exists() is false), so
  // the save below never writes back a destroyed subscription.
  auto stripe = home().lock_resource(id);
  Entry current;
  {
    std::lock_guard lock(mu_);
    auto it = table_.find(id);
    if (it == table_.end()) return false;
    current = it->second;
  }
  if (!home().exists(id)) return false;
  auto next = std::make_shared<Subscription>(*current);
  next->paused = paused;
  home().save(id, *subscription_to_xml(*next));
  std::lock_guard lock(mu_);
  if (auto it = table_.find(id); it != table_.end()) it->second = std::move(next);
  return true;
}

}  // namespace gs::wsn
