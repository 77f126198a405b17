#include "counter/wsrf_counter.hpp"

#include "common/parse.hpp"

namespace gs::counter {

using app::CounterCore;

namespace {
xml::QName counter_qn(const char* local) { return CounterCore::qn(local); }
}  // namespace

xml::QName cv_qname() { return CounterCore::value_qname(); }
xml::QName double_value_qname() { return CounterCore::double_value_qname(); }

const std::string& wsrf_counter_create_action() {
  static const std::string action = std::string(soap::ns::kCounter) + "/Create";
  return action;
}

WsrfCounterDeployment::WsrfCounterDeployment(Params params)
    : address_base_(params.address_base),
      db_(std::move(params.backend),
          {.write_through_cache = params.write_through_cache}),
      container_(params.container) {
  core_ = std::make_unique<CounterCore>(db_);
  durable_ = std::make_unique<xmldb::DurableStore>(db_);
  durable_->open_collection(core_->collection(), "counter.resource", 1);
  durable_->open_collection("counter-subscriptions", "wsn.subscription", 1);
  counter_home_ = std::make_unique<wsrf::ResourceHome>(db_, core_->collection(),
                                                       &container_.lifetime());
  subscription_home_ = std::make_unique<wsrf::ResourceHome>(
      db_, "counter-subscriptions", &container_.lifetime());

  manager_ = std::make_unique<wsn::SubscriptionManagerService>(
      *subscription_home_, manager_address());

  // The counter's property schema: the stored value plus the computed
  // DoubleValue from the paper's code fragment.
  wsrf::PropertySet props;
  props.declare_stored(cv_qname());
  props.declare_computed(
      double_value_qname(), [](const xml::Element& state) {
        std::vector<std::unique_ptr<xml::Element>> out;
        auto el = std::make_unique<xml::Element>(double_value_qname());
        el->set_text(std::to_string(CounterCore::double_value_of(state)));
        out.push_back(std::move(el));
        return out;
      });

  service_ = std::make_unique<wsrf::WsrfService>("Counter", *counter_home_,
                                                 std::move(props),
                                                 counter_address());
  service_->import_resource_properties();
  service_->import_query_resource_properties();
  service_->import_resource_lifetime();

  // The single author-defined WebMethod: create.
  service_->register_operation(
      wsrf_counter_create_action(), [this](container::RequestContext& ctx) {
        soap::EndpointReference epr =
            service_->create_resource(CounterCore::make_document(0));
        soap::Envelope response = container::make_response(
            ctx, wsrf_counter_create_action() + "Response");
        response.add_payload(epr.to_xml(counter_qn("CounterEPR")));
        return response;
      });

  producer_ = std::make_unique<wsn::NotificationProducer>(
      wsn::NotificationProducer::Config{params.notification_sink,
                                        counter_address(), manager_.get(),
                                        params.container.clock},
      [] {
        wsn::TopicNamespace topics;
        topics.add(kValueChangedTopic);
        return topics;
      }());
  producer_->register_into(*service_);

  // Publish CounterValueChanged whenever cv is set: the WSRF property
  // change feeds the core's signal, and the core's signal feeds the
  // WS-Notification producer.
  core_->on_value_changed([this](const std::string& id,
                                 const std::string& value) {
    auto event = CounterCore::changed_event(
        value, counter_home_->epr_for(id, counter_address()));
    producer_->notify(kValueChangedTopic, *event);
  });
  service_->on_property_changed([this](const std::string& id,
                                       const xml::QName& prop,
                                       const xml::Element& state) {
    if (prop != cv_qname()) return;
    if (manager_->count() == 0) return;  // nobody listening: skip
    core_->note_changed(id, state);
  });

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
  container_.deploy("/CounterSubscriptions", *manager_);
  container_.deploy("/Telemetry", *telemetry_);

  // Recovery order: counter resources (and their scheduled terminations)
  // before the subscriptions that reference them.
  container_.add_recovery("wsrf.counter", [this] { counter_home_->recover(); });
  container_.add_recovery("wsn.subscriptions", [this] { manager_->recover(); });
}

WsrfCounterClient::WsrfCounterClient(net::SoapCaller& caller,
                                     std::string counter_address,
                                     container::ProxySecurity security)
    : caller_(caller),
      counter_address_(std::move(counter_address)),
      security_(security),
      resource_(caller_, soap::EndpointReference(counter_address_), security_) {}

soap::EndpointReference WsrfCounterClient::create() {
  // The create call goes to the bare service (no resource header yet).
  class CreateProxy : public container::ProxyBase {
   public:
    using container::ProxyBase::ProxyBase;
    soap::EndpointReference run(const std::string& action) {
      const soap::Envelope response = invoke(action);
      const xml::Element* epr = response.payload();
      if (!epr) throw soap::SoapFault("Receiver", "create returned no EPR");
      return soap::EndpointReference::from_xml(*epr);
    }
  };
  CreateProxy proxy(caller_, soap::EndpointReference(counter_address_), security_);
  soap::EndpointReference epr = proxy.run(wsrf_counter_create_action());
  attach(epr);
  return epr;
}

void WsrfCounterClient::attach(soap::EndpointReference epr) {
  resource_.retarget(std::move(epr));
}

namespace {
// The property text came off the wire; a faulty service must surface as a
// SOAP fault at the proxy boundary, not std::invalid_argument from stoi.
int parse_property_int(const std::string& text, const char* what) {
  auto value = common::parse_number<int>(text);
  if (!value) {
    throw soap::SoapFault("Receiver", std::string("malformed ") + what +
                                          " property '" + text + "'");
  }
  return *value;
}
}  // namespace

int WsrfCounterClient::get() {
  return parse_property_int(resource_.get_property_text(cv_qname()), "cv");
}

void WsrfCounterClient::set(int value) {
  resource_.update_property_text(cv_qname(), std::to_string(value));
}

int WsrfCounterClient::double_value() {
  return parse_property_int(resource_.get_property_text(double_value_qname()),
                            "DoubleValue");
}

void WsrfCounterClient::destroy() { resource_.destroy(); }

wsn::SubscriptionProxy WsrfCounterClient::subscribe(
    const soap::EndpointReference& consumer) {
  wsn::NotificationProducerProxy producer(caller_, resource_.target(), security_);
  wsn::Filter filter;
  filter.set_topic(wsn::TopicExpression::parse(
      wsn::TopicExpression::Dialect::kConcrete, kValueChangedTopic));
  // Per-resource subscription: a MessageContent filter pins the
  // subscription to this counter's id (the event carries the counter EPR).
  if (auto id = resource_.target().reference_property(wsrf::resource_id_qname())) {
    filter.set_message_content("//ResourceID[. = '" + *id + "']");
  }
  soap::EndpointReference sub_epr = producer.subscribe(consumer, filter);
  return wsn::SubscriptionProxy(caller_, sub_epr, security_);
}

}  // namespace gs::counter
