#include "counter/wst_counter.hpp"

#include "common/parse.hpp"
#include "counter/wsrf_counter.hpp"  // shared QNames and topic name

namespace gs::counter {

using app::CounterCore;

WstCounterDeployment::WstCounterDeployment(Params params)
    : address_base_(params.address_base),
      db_(std::move(params.backend), {.write_through_cache = false}),
      container_(params.container) {
  core_ = std::make_unique<CounterCore>(db_);
  durable_ = std::make_unique<xmldb::DurableStore>(db_);
  durable_->open_collection(core_->collection(), "counter.resource", 1);
  if (params.subscriptions_in_db) {
    durable_->open_collection("wse-subscriptions", "wse.subscription", 1);
    store_ = std::make_unique<wse::SubscriptionStore>(db_, "wse-subscriptions");
  } else if (!params.subscription_file.empty()) {
    store_ = std::make_unique<wse::SubscriptionStore>(params.subscription_file);
  } else {
    store_ = std::make_unique<wse::SubscriptionStore>();
  }
  manager_ = std::make_unique<wse::WseSubscriptionManagerService>(
      *store_, manager_address(), *params.container.clock);
  source_ = std::make_unique<wse::EventSourceService>(
      "CounterEvents", *store_, *manager_, *params.container.clock);
  notifier_ = std::make_unique<wse::NotificationManager>(
      *store_, *params.notification_sink, *params.container.clock);

  wst::TransferService::Hooks hooks;
  // Put is read-modify-write per the paper: the core fetches the stored
  // document, replaces cv with the incoming value, and stores it back —
  // one extra database read that the WSRF.NET cache never pays.
  hooks.on_put = [this](const std::string& id, const xml::Element& replacement,
                        container::RequestContext&)
      -> std::unique_ptr<xml::Element> {
    core_->apply_put(id, replacement);
    return nullptr;
  };
  // The core's value-changed signal feeds the WS-Eventing Notification
  // Manager.
  core_->on_value_changed([this](const std::string& id,
                                 const std::string& value) {
    auto event = CounterCore::changed_event(value, service_->epr_for(id));
    notifier_->notify(kValueChangedTopic, *event,
                      std::string(soap::ns::kCounter) + "/" + kValueChangedTopic);
  });

  service_ = std::make_unique<wst::TransferService>(
      "Counter", db_, core_->collection(), counter_address(), std::move(hooks));

  // The telemetry resource reads the registry the container writes to
  // (custom or global) and carries whatever series/SLO/cost wiring the
  // deployment attached.
  telemetry_ = std::make_unique<telemetry::TelemetryService>(
      telemetry_address(),
      params.container.metrics ? params.container.metrics
                               : &telemetry::MetricsRegistry::global(),
      &telemetry::TraceLog::global(), &telemetry::EventLog::global(),
      params.series, params.slo, params.costs);
  if (params.costs) container_.set_cost_aggregator(params.costs);

  container_.deploy("/Counter", *service_);
  container_.deploy("/CounterEvents", *source_);
  container_.deploy("/CounterEventSubscriptions", *manager_);
  container_.deploy("/Telemetry", *telemetry_);

  container_.add_recovery("wse.subscriptions", [this] { store_->recover(); });
}

WstCounterClient::WstCounterClient(net::SoapCaller& caller,
                                   std::string counter_address,
                                   std::string source_address,
                                   container::ProxySecurity security)
    : caller_(caller),
      source_address_(std::move(source_address)),
      security_(security),
      resource_(caller_, soap::EndpointReference(counter_address), security_) {}

soap::EndpointReference WstCounterClient::create() {
  soap::EndpointReference epr =
      resource_.create(CounterCore::make_document(0)).resource;
  resource_.retarget(epr);
  return epr;
}

void WstCounterClient::attach(soap::EndpointReference epr) {
  resource_.retarget(std::move(epr));
}

int WstCounterClient::get() {
  const soap::Envelope response = resource_.get_response();
  // The schema is hard-coded client-side: <Counter><cv>N</cv></Counter>,
  // read in place from the response's wire view.
  static const xml::QName cv_name = cv_qname();
  const xml::ArenaNode* cv = wst::TransferProxy::representation(response).child(
      cv_name.ns(), cv_name.local());
  if (!cv) throw soap::SoapFault("Receiver", "counter document has no cv");
  std::string text = cv->text();
  auto value = common::parse_number<int>(text);
  if (!value) {
    throw soap::SoapFault("Receiver", "malformed counter value '" + text + "'");
  }
  return *value;
}

void WstCounterClient::set(int value) {
  resource_.put(CounterCore::make_document(value));
}

void WstCounterClient::remove() { resource_.remove(); }

wse::EventSourceProxy::SubscriptionHandle WstCounterClient::subscribe(
    const soap::EndpointReference& notify_to) {
  wse::EventSourceProxy source(
      caller_, soap::EndpointReference(source_address_), security_);
  // WS-Eventing subscriptions attach to the service, not a resource; the
  // per-counter scoping the paper describes ("a filter can be used for
  // registering a subscription per resource") is an XPath filter over the
  // event content, which carries the counter EPR.
  if (auto id = resource_.target().reference_property(wst::transfer_id_qname())) {
    return source.subscribe(notify_to, wse::FilterDialect::kXPath,
                            "//ResourceID[. = '" + *id + "']");
  }
  return source.subscribe(notify_to, wse::FilterDialect::kTopic,
                          kValueChangedTopic);
}

}  // namespace gs::counter
