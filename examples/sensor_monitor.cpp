// Sensor monitoring: the "excellent replacement for SNMP" scenario from the
// paper's introduction — device state exposed as a WS-Resource, monitored
// two ways:
//   * WSRF: resource properties per metric, QueryResourceProperties with
//     XPath for fleet-style probes, WS-Notification for threshold alerts;
//   * WS-Transfer: the whole device document fetched with Get, threshold
//     alerts via a WS-Eventing XPath content filter.
//
//   $ ./example_sensor_monitor
#include <cstdio>

#include "container/container.hpp"
#include "net/virtual_network.hpp"
#include "wse/client.hpp"
#include "wsn/client.hpp"
#include "wsn/consumer.hpp"
#include "wsn/producer.hpp"
#include "wsrf/client.hpp"
#include "wst/client.hpp"
#include "xml/writer.hpp"

using namespace gs;

namespace {
const char* kNs = "urn:devices";
xml::QName dev(const char* local) { return {kNs, local}; }

std::unique_ptr<xml::Element> device_state(int temperature, int fan_rpm) {
  auto doc = std::make_unique<xml::Element>(dev("Device"));
  doc->append_element(dev("Temperature")).set_text(std::to_string(temperature));
  doc->append_element(dev("FanRpm")).set_text(std::to_string(fan_rpm));
  return doc;
}
}  // namespace

int main() {
  std::printf("== Device monitoring on both stacks ==\n\n");

  common::ManualClock clock(0);
  net::VirtualNetwork net;
  net::VirtualCaller caller(net, {});
  net::VirtualCaller sink(net, {.keep_alive = false});
  net::VirtualCaller tcp_sink(net, {.transport = net::TransportKind::kSoapTcp});
  wsn::NotificationConsumer alerts;
  net.bind("ops.example", alerts);

  // ------------------------- WSRF agent --------------------------------------
  xmldb::XmlDatabase db(std::make_unique<xmldb::MemoryBackend>(),
                        {.write_through_cache = true});
  container::Container agent({.clock = &clock});
  wsrf::ResourceHome devices(db, "devices", &agent.lifetime());
  wsrf::ResourceHome subs(db, "subs", &agent.lifetime());
  wsn::SubscriptionManagerService manager(subs, "http://agent/Subscriptions");

  wsrf::PropertySet props;
  props.declare_stored(dev("Temperature"));
  props.declare_stored(dev("FanRpm"));
  // A computed health property, like the paper's DoubleValue.
  props.declare_computed(dev("Health"), [](const xml::Element& state) {
    std::vector<std::unique_ptr<xml::Element>> out;
    int t = std::stoi(state.child(dev("Temperature"))->text());
    auto el = std::make_unique<xml::Element>(dev("Health"));
    el->set_text(t < 70 ? "nominal" : "overheating");
    out.push_back(std::move(el));
    return out;
  });
  wsrf::WsrfService service("DeviceAgent", devices, std::move(props),
                            "http://agent/Device");
  service.import_resource_properties();
  service.import_query_resource_properties();
  service.import_resource_lifetime();

  wsn::TopicNamespace topics;
  topics.add("device/threshold");
  wsn::NotificationProducer producer(
      {&sink, "http://agent/Device", &manager, &clock}, std::move(topics));
  producer.register_into(service);
  service.on_property_changed([&](const std::string&, const xml::QName&,
                                  const xml::Element& state) {
    int t = std::stoi(state.child(dev("Temperature"))->text());
    if (t >= 70) {
      xml::Element alert(dev("ThresholdAlert"));
      alert.append_element(dev("Temperature")).set_text(std::to_string(t));
      producer.notify("device/threshold", alert);
    }
  });
  agent.deploy("/Device", service);
  agent.deploy("/Subscriptions", manager);
  net.bind("agent", agent);

  soap::EndpointReference rack42 =
      service.create_resource(device_state(45, 2400));
  std::printf("[wsrf] device 'rack42' registered as a WS-Resource\n");

  wsrf::WsResourceProxy probe(caller, rack42);
  std::printf("[wsrf] GetResourceProperty(Temperature) = %s, Health = %s\n",
              probe.get_property_text(dev("Temperature")).c_str(),
              probe.get_property_text(dev("Health")).c_str());

  auto hot = probe.query("/ResourceProperties[Temperature > 70]");
  std::printf("[wsrf] XPath probe 'Temperature > 70' matched: %s\n",
              hot.empty() ? "no" : "yes");

  wsn::NotificationProducerProxy np(caller, rack42);
  wsn::Filter f;
  f.set_topic(wsn::TopicExpression::parse(
      wsn::TopicExpression::Dialect::kConcrete, "device/threshold"));
  np.subscribe(soap::EndpointReference("http://ops.example/alerts"), f);

  probe.update_property_text(dev("Temperature"), "82");
  if (alerts.wait_for(1, 2000)) {
    std::printf("[wsrf] threshold alert received: temperature %s\n",
                alerts.received()[0]
                    .payload->child(dev("Temperature"))
                    ->text()
                    .c_str());
  }
  std::printf("[wsrf] Health now: %s\n\n",
              probe.get_property_text(dev("Health")).c_str());

  // ---------------------- WS-Transfer agent ----------------------------------
  xmldb::XmlDatabase db2(std::make_unique<xmldb::MemoryBackend>());
  container::Container agent2({.clock = &clock});
  wse::SubscriptionStore store;
  wse::WseSubscriptionManagerService manager2(store, "http://agent2/Subs", clock);
  wse::EventSourceService source("DeviceEvents", store, manager2, clock);
  wse::NotificationManager notifier(store, tcp_sink, clock);

  wst::TransferService::Hooks hooks;
  hooks.on_put = [&](const std::string& id, const xml::Element& replacement,
                     container::RequestContext&) -> std::unique_ptr<xml::Element> {
    db2.store("devices", id, replacement);
    int t = std::stoi(replacement.child(dev("Temperature"))->text());
    if (t >= 70) {
      xml::Element alert(dev("ThresholdAlert"));
      alert.append_element(dev("Temperature")).set_text(std::to_string(t));
      notifier.notify("device/threshold", alert, std::string(kNs) + "/Alert");
    }
    return nullptr;
  };
  wst::TransferService transfer("DeviceAgent", db2, "devices",
                                "http://agent2/Device", std::move(hooks));
  agent2.deploy("/Device", transfer);
  agent2.deploy("/DeviceEvents", source);
  agent2.deploy("/Subs", manager2);
  net.bind("agent2", agent2);

  alerts.clear();
  wst::TransferProxy factory(caller, soap::EndpointReference("http://agent2/Device"));
  auto created = factory.create(device_state(50, 2000));
  std::printf("[wst]  device stored; Get() returns the whole document:\n");
  wst::TransferProxy device(caller, created.resource);
  std::printf("       %s\n", xml::write(*device.get()).c_str());

  wse::EventSourceProxy events(caller,
                               soap::EndpointReference("http://agent2/DeviceEvents"));
  events.subscribe(soap::EndpointReference("http://ops.example/alerts"),
                   wse::FilterDialect::kXPath,
                   "/ThresholdAlert[Temperature >= 70]");

  device.put(device_state(91, 4800));
  if (alerts.wait_for(1, 2000)) {
    std::printf("[wst]  WS-Eventing alert received (XPath content filter)\n");
  }

  std::printf("\nSame monitoring semantics, two stacks — the get/set state\n"
              "surface the paper calls 'an excellent replacement for SNMP'.\n");
  return 0;
}
