// Tests for WS-Eventing: the subscription store (flat-XML persistence),
// Subscribe/Renew/GetStatus/Unsubscribe, filter dialects, delivery modes,
// expiration and SubscriptionEnd.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "container/container.hpp"
#include "net/virtual_network.hpp"
#include "telemetry/event_log.hpp"
#include "wse/client.hpp"
#include "wse/service.hpp"
#include "wsn/consumer.hpp"
#include "xml/parser.hpp"
#include "xmldb/database.hpp"

namespace gs::wse {
namespace {

const char* kNs = "urn:app";
xml::QName app(const char* local) { return {kNs, local}; }

// --- the subscription store -------------------------------------------------------

TEST(Store, AddGetRemove) {
  SubscriptionStore store;
  WseSubscription sub;
  sub.notify_to = soap::EndpointReference("http://c/sink");
  sub.expires = WseSubscription::kNever;
  std::string id = store.add(std::move(sub));
  EXPECT_EQ(store.size(), 1u);
  auto got = store.get(id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->notify_to.address(), "http://c/sink");
  EXPECT_TRUE(store.remove(id));
  EXPECT_FALSE(store.remove(id));
  EXPECT_FALSE(store.get(id).has_value());
}

TEST(Store, ActiveSkipsExpired) {
  SubscriptionStore store;
  WseSubscription live;
  live.notify_to = soap::EndpointReference("http://a");
  live.expires = 1000;
  store.add(std::move(live));
  WseSubscription forever;
  forever.notify_to = soap::EndpointReference("http://b");
  forever.expires = WseSubscription::kNever;
  store.add(std::move(forever));
  EXPECT_EQ(store.active(500).size(), 2u);
  EXPECT_EQ(store.active(1500).size(), 1u);
}

TEST(Store, PurgeReturnsExpired) {
  SubscriptionStore store;
  WseSubscription sub;
  sub.notify_to = soap::EndpointReference("http://a");
  sub.end_to = soap::EndpointReference("http://a/end");
  sub.expires = 100;
  store.add(std::move(sub));
  auto purged = store.purge_expired(200);
  ASSERT_EQ(purged.size(), 1u);
  EXPECT_EQ(purged[0].end_to.address(), "http://a/end");
  EXPECT_EQ(store.size(), 0u);
}

TEST(Store, RenewUpdatesExpiry) {
  SubscriptionStore store;
  WseSubscription sub;
  sub.notify_to = soap::EndpointReference("http://a");
  sub.expires = 100;
  std::string id = store.add(std::move(sub));
  EXPECT_TRUE(store.renew(id, 9000));
  EXPECT_EQ(store.get(id)->expires, 9000);
  EXPECT_FALSE(store.renew("bogus", 1));
}

TEST(Store, FlatXmlFilePersistence) {
  // The Plumbwork implementation "maintains the subscription lists in a
  // flat XML file" — the store must survive a restart.
  auto path = std::filesystem::temp_directory_path() / "gs-wse-subs.xml";
  std::filesystem::remove(path);
  std::string id;
  {
    SubscriptionStore store(path);
    WseSubscription sub;
    sub.notify_to = soap::EndpointReference("http://c/sink");
    sub.dialect = FilterDialect::kTopic;
    sub.filter = "job/done";
    sub.expires = 123456;
    sub.delivery_mode = kPushMode;
    id = store.add(std::move(sub));
  }
  {
    SubscriptionStore store(path);
    EXPECT_EQ(store.size(), 1u);
    auto sub = store.get(id);
    ASSERT_TRUE(sub.has_value());
    EXPECT_EQ(sub->notify_to.address(), "http://c/sink");
    EXPECT_EQ(sub->dialect, FilterDialect::kTopic);
    EXPECT_EQ(sub->filter, "job/done");
    EXPECT_EQ(sub->expires, 123456);
    // New ids don't collide with loaded ones.
    WseSubscription another;
    another.notify_to = soap::EndpointReference("http://d");
    EXPECT_NE(store.add(std::move(another)), id);
  }
  std::filesystem::remove(path);
}

TEST(Store, MalformedPersistedExpiresDropsOnlyThatEntry) {
  // A corrupt flat-file Expires used to throw std::invalid_argument out of
  // std::stoll inside the constructor, so one damaged line killed the
  // whole subscription manager at startup. Now the bad entry is dropped
  // with a warning and every other subscription survives.
  auto path = std::filesystem::temp_directory_path() / "gs-wse-subs3.xml";
  std::filesystem::remove(path);
  std::string good_id, bad_id;
  {
    SubscriptionStore store(path);
    WseSubscription good;
    good.notify_to = soap::EndpointReference("http://good/sink");
    good.expires = 111;
    good_id = store.add(std::move(good));
    WseSubscription bad;
    bad.notify_to = soap::EndpointReference("http://bad/sink");
    bad.expires = 222;
    bad_id = store.add(std::move(bad));
  }
  // Corrupt the persisted Expires of the second entry on disk.
  std::string content;
  {
    std::ifstream in(path);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>{});
  }
  auto at = content.find(">222<");
  ASSERT_NE(at, std::string::npos);
  content.replace(at, 5, ">2x2<");
  {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }

  std::uint64_t warns =
      telemetry::EventLog::global().count(telemetry::Level::kWarn);
  SubscriptionStore store(path);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.get(good_id).has_value());
  EXPECT_FALSE(store.get(bad_id).has_value());
  EXPECT_EQ(telemetry::EventLog::global().count(telemetry::Level::kWarn),
            warns + 1);
  std::filesystem::remove(path);
}

// A database-backed store and a notifier delivering to one consumer.
struct DbStoreFixture {
  common::ManualClock clock{10'000};
  net::VirtualNetwork net;
  net::VirtualCaller sink{net, {.transport = net::TransportKind::kSoapTcp}};
  wsn::NotificationConsumer consumer;
  xmldb::XmlDatabase db{std::make_unique<xmldb::MemoryBackend>(), {}};

  DbStoreFixture() { net.bind("c", consumer); }

  std::string add_xpath(const char* filter) {
    SubscriptionStore store(db, "subs");
    WseSubscription sub;
    sub.notify_to = soap::EndpointReference("http://c/sink");
    sub.dialect = FilterDialect::kXPath;
    sub.filter = filter;
    sub.expires = WseSubscription::kNever;
    return store.add(std::move(sub));
  }
};

TEST(Store, RecoveredXPathFilterStillFiltersPerResource) {
  DbStoreFixture fx;
  fx.add_xpath("/Event[resource='counter-7']");
  // A restarted event source finds the subscription on the medium.
  SubscriptionStore store(fx.db, "subs");
  ASSERT_EQ(store.recover(), 1u);
  NotificationManager notifier(store, fx.sink, fx.clock);
  auto mine = xml::parse_element("<Event><resource>counter-7</resource></Event>");
  auto other = xml::parse_element("<Event><resource>counter-9</resource></Event>");
  EXPECT_EQ(notifier.notify("t", *mine, "urn:a"), 1u);
  EXPECT_EQ(notifier.notify("t", *other, "urn:a"), 0u);
  EXPECT_EQ(fx.consumer.count(), 1u);
}

TEST(Store, PersistedFilterThatDoesNotCompileNeverMatches) {
  DbStoreFixture fx;
  std::string id = fx.add_xpath("/Event");
  auto doc = fx.db.load("subs", id);
  ASSERT_TRUE(doc);
  doc->child({soap::ns::kEventing, "Filter"})->set_text("/Event[");
  fx.db.store("subs", id, *doc);

  SubscriptionStore store(fx.db, "subs");
  EXPECT_EQ(store.size(), 1u);
  NotificationManager notifier(store, fx.sink, fx.clock);
  auto ev = xml::parse_element("<Event/>");
  EXPECT_EQ(notifier.notify("t", *ev, "urn:a"), 0u);
  EXPECT_EQ(fx.consumer.count(), 0u);
}

TEST(Store, FileIsValidXml) {
  auto path = std::filesystem::temp_directory_path() / "gs-wse-subs2.xml";
  std::filesystem::remove(path);
  SubscriptionStore store(path);
  WseSubscription sub;
  sub.notify_to = soap::EndpointReference("http://c/sink");
  store.add(std::move(sub));
  std::ifstream in(path);
  std::string content(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>{});
  EXPECT_NO_THROW(xml::parse_element(content));
  std::filesystem::remove(path);
}

// --- filter semantics ----------------------------------------------------------------

TEST(WseFilter, TopicDialectIsExactMatch) {
  WseSubscription sub;
  sub.dialect = FilterDialect::kTopic;
  sub.filter = "job/done";
  auto ev = xml::parse_element("<e/>");
  EXPECT_TRUE(sub.accepts("job/done", *ev));
  EXPECT_FALSE(sub.accepts("job/done/extra", *ev));
  EXPECT_FALSE(sub.accepts("job", *ev));
}

TEST(WseFilter, XPathDialectEvaluatesContent) {
  WseSubscription sub;
  sub.dialect = FilterDialect::kXPath;
  sub.filter = "/Event[severity='high']";
  EXPECT_TRUE(sub.accepts("any", *xml::parse_element(
                                      "<Event><severity>high</severity></Event>")));
  EXPECT_FALSE(sub.accepts("any", *xml::parse_element(
                                      "<Event><severity>low</severity></Event>")));
}

TEST(WseFilter, NoFilterAcceptsEverything) {
  WseSubscription sub;
  EXPECT_TRUE(sub.accepts("anything", *xml::parse_element("<e/>")));
}

TEST(WseFilter, DialectUriRoundTrip) {
  EXPECT_EQ(dialect_from_uri(dialect_uri(FilterDialect::kXPath)),
            FilterDialect::kXPath);
  EXPECT_EQ(dialect_from_uri(dialect_uri(FilterDialect::kTopic)),
            FilterDialect::kTopic);
  EXPECT_EQ(dialect_from_uri(""), FilterDialect::kNone);
  EXPECT_THROW(dialect_from_uri("urn:bogus"), std::invalid_argument);
}

// --- end-to-end fixture -----------------------------------------------------------------

struct WseFixture {
  common::ManualClock clock{10'000};
  net::VirtualNetwork net;
  container::Container container{{.clock = &clock}};
  SubscriptionStore store;
  std::unique_ptr<WseSubscriptionManagerService> manager;
  std::unique_ptr<EventSourceService> source;
  std::unique_ptr<net::VirtualCaller> caller;
  std::unique_ptr<net::VirtualCaller> tcp_sink;
  std::unique_ptr<NotificationManager> notifier;
  wsn::NotificationConsumer consumer;

  WseFixture() {
    manager = std::make_unique<WseSubscriptionManagerService>(
        store, "http://s/Subscriptions", clock);
    source = std::make_unique<EventSourceService>("Events", store, *manager, clock);
    caller = std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
    tcp_sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.transport = net::TransportKind::kSoapTcp});
    notifier = std::make_unique<NotificationManager>(store, *tcp_sink, clock);
    container.deploy("/Events", *source);
    container.deploy("/Subscriptions", *manager);
    net.bind("s", container);
    net.bind("c", consumer);
  }

  EventSourceProxy source_proxy() {
    return EventSourceProxy(*caller, soap::EndpointReference("http://s/Events"));
  }

  std::unique_ptr<xml::Element> event(const char* severity = "low") {
    auto e = std::make_unique<xml::Element>(app("Event"));
    e->append_element(app("severity")).set_text(severity);
    return e;
  }
};

TEST(Eventing, SubscribeAndReceivePush) {
  WseFixture fx;
  auto handle = fx.source_proxy().subscribe(
      soap::EndpointReference("http://c/sink"));
  EXPECT_EQ(handle.expires, WseSubscription::kNever);
  auto ev = fx.event();
  EXPECT_EQ(fx.notifier->notify("t", *ev, "urn:app/Event"), 1u);
  ASSERT_TRUE(fx.consumer.wait_for(1, 1000));
  // WS-Eventing events are bare messages — no Notify wrapper, so the
  // consumer sees them as "raw".
  auto received = fx.consumer.received();
  EXPECT_TRUE(received[0].raw);
  ASSERT_TRUE(received[0].payload);
  EXPECT_EQ(received[0].payload->name(), app("Event"));
}

TEST(Eventing, TopicFilterRestrictsDelivery) {
  WseFixture fx;
  fx.source_proxy().subscribe(soap::EndpointReference("http://c/sink"),
                              FilterDialect::kTopic, "job/done");
  auto ev = fx.event();
  EXPECT_EQ(fx.notifier->notify("job/started", *ev, "urn:a"), 0u);
  EXPECT_EQ(fx.notifier->notify("job/done", *ev, "urn:a"), 1u);
}

TEST(Eventing, XPathFilterPerResourceSubscription) {
  // "a filter can be used for registering a subscription per resource" —
  // subscribe to events for one counter only.
  WseFixture fx;
  fx.source_proxy().subscribe(soap::EndpointReference("http://c/sink"),
                              FilterDialect::kXPath,
                              "/Event[resource='counter-7']");
  auto mine = xml::parse_element("<Event><resource>counter-7</resource></Event>");
  auto other = xml::parse_element("<Event><resource>counter-9</resource></Event>");
  EXPECT_EQ(fx.notifier->notify("t", *mine, "urn:a"), 1u);
  EXPECT_EQ(fx.notifier->notify("t", *other, "urn:a"), 0u);
}

TEST(Eventing, BadXPathFilterFaultsAtSubscribe) {
  WseFixture fx;
  EXPECT_THROW(fx.source_proxy().subscribe(
                   soap::EndpointReference("http://c/sink"),
                   FilterDialect::kXPath, "broken["),
               soap::SoapFault);
}

TEST(Eventing, UnknownFilterDialectFaults) {
  // The spec fault for unsupported dialects.
  WseFixture fx;

  class RawProxy : public container::ProxyBase {
   public:
    using container::ProxyBase::ProxyBase;
    void subscribe_with_dialect(const std::string& dialect) {
      auto req = std::make_unique<xml::Element>(
          xml::QName(soap::ns::kEventing, "Subscribe"));
      auto& delivery = req->append_element(
          xml::QName(soap::ns::kEventing, "Delivery"));
      delivery.set_attr("Mode", kPushMode);
      delivery.append(soap::EndpointReference("http://c/sink")
                          .to_xml(xml::QName(soap::ns::kEventing, "NotifyTo")));
      auto& filter = req->append_element(
          xml::QName(soap::ns::kEventing, "Filter"));
      filter.set_attr("Dialect", dialect);
      filter.set_text("whatever");
      invoke(actions::kSubscribe, std::move(req));
    }
  };
  RawProxy proxy(*fx.caller, soap::EndpointReference("http://s/Events"));
  try {
    proxy.subscribe_with_dialect("urn:unknown");
    FAIL() << "expected fault";
  } catch (const soap::SoapFault& f) {
    EXPECT_EQ(f.fault().subcode, "wse:FilteringRequestedUnavailable");
  }
}

TEST(Eventing, NonPushDeliveryModeFaults) {
  WseFixture fx;

  class RawProxy : public container::ProxyBase {
   public:
    using container::ProxyBase::ProxyBase;
    void subscribe_with_mode(const std::string& mode) {
      auto req = std::make_unique<xml::Element>(
          xml::QName(soap::ns::kEventing, "Subscribe"));
      auto& delivery = req->append_element(
          xml::QName(soap::ns::kEventing, "Delivery"));
      delivery.set_attr("Mode", mode);
      delivery.append(soap::EndpointReference("http://c/sink")
                          .to_xml(xml::QName(soap::ns::kEventing, "NotifyTo")));
      invoke(actions::kSubscribe, std::move(req));
    }
  };
  RawProxy proxy(*fx.caller, soap::EndpointReference("http://s/Events"));
  try {
    proxy.subscribe_with_mode("urn:custom-pull-mode");
    FAIL() << "expected fault";
  } catch (const soap::SoapFault& f) {
    EXPECT_EQ(f.fault().subcode, "wse:DeliveryModeRequestedUnavailable");
  }
}

// Regression: non-numeric Expires used to reach std::stoll and escape as an
// uncaught std::invalid_argument instead of faulting.
TEST(Eventing, GarbageExpiresFaultsAtSubscribe) {
  WseFixture fx;
  soap::Envelope request;
  soap::MessageInfo info;
  info.target(soap::EndpointReference("http://s/Events"));
  info.action = actions::kSubscribe;
  info.message_id = "urn:test:garbage-expires";
  request.write_addressing(info);
  xml::Element& sub =
      request.add_payload({soap::ns::kEventing, "Subscribe"});
  xml::Element& delivery =
      sub.append_element({soap::ns::kEventing, "Delivery"});
  delivery.append(soap::EndpointReference("http://c/sink")
                      .to_xml({soap::ns::kEventing, "NotifyTo"}));
  sub.append_element({soap::ns::kEventing, "Expires"}).set_text("whenever");
  soap::Envelope response = fx.caller->call("http://s/Events", request);
  ASSERT_TRUE(response.is_fault());
  EXPECT_EQ(response.fault().code, "Sender");
  EXPECT_TRUE(fx.store.active(fx.clock.now()).empty());
}

TEST(Eventing, GetStatusReportsExpiry) {
  WseFixture fx;
  auto handle = fx.source_proxy().subscribe(
      soap::EndpointReference("http://c/sink"), FilterDialect::kNone, "",
      /*duration_ms=*/5000);
  EXPECT_EQ(handle.expires, 15'000);  // clock at 10'000 + 5000
  WseSubscriptionProxy sub(*fx.caller, handle.manager);
  EXPECT_EQ(sub.get_status(), 15'000);
}

TEST(Eventing, RenewExtendsSubscription) {
  WseFixture fx;
  auto handle = fx.source_proxy().subscribe(
      soap::EndpointReference("http://c/sink"), FilterDialect::kNone, "", 1000);
  WseSubscriptionProxy sub(*fx.caller, handle.manager);
  EXPECT_EQ(sub.renew(60'000), 70'000);
  EXPECT_EQ(sub.get_status(), 70'000);
  // Renewing to infinite.
  EXPECT_EQ(sub.renew(-1), WseSubscription::kNever);
}

TEST(Eventing, UnsubscribeStopsDelivery) {
  WseFixture fx;
  auto handle = fx.source_proxy().subscribe(
      soap::EndpointReference("http://c/sink"));
  WseSubscriptionProxy sub(*fx.caller, handle.manager);
  sub.unsubscribe();
  auto ev = fx.event();
  EXPECT_EQ(fx.notifier->notify("t", *ev, "urn:a"), 0u);
  EXPECT_THROW(sub.get_status(), soap::SoapFault);
}

TEST(Eventing, ExpiredSubscriptionGetsSubscriptionEnd) {
  WseFixture fx;
  wsn::NotificationConsumer end_sink;
  fx.net.bind("end", end_sink);
  fx.source_proxy().subscribe(soap::EndpointReference("http://c/sink"),
                              FilterDialect::kNone, "",
                              /*duration_ms=*/1000,
                              soap::EndpointReference("http://end/sink"));
  fx.clock.advance(2000);
  auto ev = fx.event();
  EXPECT_EQ(fx.notifier->notify("t", *ev, "urn:a"), 0u);
  // The EndTo sink received SubscriptionEnd.
  ASSERT_TRUE(end_sink.wait_for(1, 1000));
  auto received = end_sink.received();
  ASSERT_TRUE(received[0].payload);
  EXPECT_EQ(received[0].payload->name().local(), "SubscriptionEnd");
}

TEST(Eventing, SubscriptionNotTiedToResource) {
  // "Unlike WS-Notification, a subscription is not associated with a
  // resource, but only with a service": one subscription sees events for
  // every resource the service publishes about.
  WseFixture fx;
  fx.source_proxy().subscribe(soap::EndpointReference("http://c/sink"));
  auto ev1 = xml::parse_element("<Event><resource>r1</resource></Event>");
  auto ev2 = xml::parse_element("<Event><resource>r2</resource></Event>");
  EXPECT_EQ(fx.notifier->notify("t", *ev1, "urn:a"), 1u);
  EXPECT_EQ(fx.notifier->notify("t", *ev2, "urn:a"), 1u);
  EXPECT_TRUE(fx.consumer.wait_for(2, 1000));
}

TEST(Eventing, ManagerSharedBetweenSourceAndManagerServices) {
  // The subscription manager "may be the same web service as the event
  // source, or a separate service" — here they are separate container
  // paths over one store, and the handle returned by Subscribe points at
  // the manager, not the source.
  WseFixture fx;
  auto handle = fx.source_proxy().subscribe(
      soap::EndpointReference("http://c/sink"));
  EXPECT_EQ(handle.manager.address(), "http://s/Subscriptions");
  EXPECT_TRUE(handle.manager.reference_property(identifier_qname()).has_value());
}

}  // namespace
}  // namespace gs::wse
