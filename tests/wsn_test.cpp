// Tests for WS-Notification: topics, filters, subscriptions, delivery,
// pause/resume, raw delivery, and brokered / demand-based publishing.
#include <gtest/gtest.h>

#include "container/container.hpp"
#include "net/virtual_network.hpp"
#include "telemetry/event_log.hpp"
#include "wsn/broker.hpp"
#include "wsn/client.hpp"
#include "wsn/consumer.hpp"
#include "wsn/producer.hpp"
#include "xml/parser.hpp"

namespace gs::wsn {
namespace {

const char* kNs = "urn:app";
xml::QName app(const char* local) { return {kNs, local}; }

// --- WS-Topics ------------------------------------------------------------------

using Dialect = TopicExpression::Dialect;

struct TopicCase {
  const char* name;
  Dialect dialect;
  const char* expr;
  const char* topic;
  bool match;
};

class TopicMatch : public ::testing::TestWithParam<TopicCase> {};

INSTANTIATE_TEST_SUITE_P(
    Dialects, TopicMatch,
    ::testing::Values(
        TopicCase{"SimpleMatchesRoot", Dialect::kSimple, "job", "job", true},
        TopicCase{"SimpleMatchesSubtree", Dialect::kSimple, "job",
                  "job/status/done", true},
        TopicCase{"SimpleRejectsOther", Dialect::kSimple, "job", "data", false},
        TopicCase{"ConcreteExact", Dialect::kConcrete, "job/status/done",
                  "job/status/done", true},
        TopicCase{"ConcreteRejectsPrefix", Dialect::kConcrete, "job/status",
                  "job/status/done", false},
        TopicCase{"ConcreteRejectsSuffix", Dialect::kConcrete, "job/status/done",
                  "job/status", false},
        TopicCase{"FullStarOneSegment", Dialect::kFull, "job/*/done",
                  "job/status/done", true},
        TopicCase{"FullStarExactlyOne", Dialect::kFull, "job/*/done",
                  "job/a/b/done", false},
        TopicCase{"FullAnyDepth", Dialect::kFull, "job//done",
                  "job/a/b/done", true},
        TopicCase{"FullAnyDepthZero", Dialect::kFull, "job//done", "job/done",
                  true},
        TopicCase{"FullLeadingStar", Dialect::kFull, "*/done", "job/done", true},
        TopicCase{"FullTrailingAnyDepth", Dialect::kFull, "job//", "job/x/y",
                  false}),
    [](const auto& info) { return info.param.name; });

TEST_P(TopicMatch, Matches) {
  if (std::string(GetParam().name) == "FullTrailingAnyDepth") {
    // "job//" has an empty trailing segment: rejected at parse.
    EXPECT_THROW(TopicExpression::parse(GetParam().dialect, GetParam().expr),
                 TopicError);
    return;
  }
  TopicExpression expr =
      TopicExpression::parse(GetParam().dialect, GetParam().expr);
  EXPECT_EQ(expr.matches(GetParam().topic), GetParam().match);
}

TEST(Topics, DialectValidation) {
  EXPECT_THROW(TopicExpression::parse(Dialect::kSimple, "a/b"), TopicError);
  EXPECT_THROW(TopicExpression::parse(Dialect::kSimple, "*"), TopicError);
  EXPECT_THROW(TopicExpression::parse(Dialect::kConcrete, "a/*/b"), TopicError);
  EXPECT_THROW(TopicExpression::parse(Dialect::kConcrete, ""), TopicError);
  EXPECT_NO_THROW(TopicExpression::parse(Dialect::kFull, "a/*/b"));
}

TEST(Topics, DialectUriRoundTrip) {
  for (Dialect d : {Dialect::kSimple, Dialect::kConcrete, Dialect::kFull}) {
    EXPECT_EQ(TopicExpression::dialect_from_uri(TopicExpression::dialect_uri(d)), d);
  }
  EXPECT_THROW(TopicExpression::dialect_from_uri("urn:bogus"), TopicError);
}

TEST(Topics, NamespaceRegistersIntermediates) {
  TopicNamespace ns;
  ns.add("job/status/done");
  EXPECT_TRUE(ns.contains("job"));
  EXPECT_TRUE(ns.contains("job/status"));
  EXPECT_TRUE(ns.contains("job/status/done"));
  EXPECT_FALSE(ns.contains("job/other"));
  EXPECT_EQ(ns.topics().size(), 3u);
}

TEST(Topics, NamespaceExpand) {
  TopicNamespace ns;
  ns.add("job/started");
  ns.add("job/done");
  ns.add("data/uploaded");
  TopicExpression all_job = TopicExpression::parse(Dialect::kFull, "job/*");
  EXPECT_EQ(ns.expand(all_job).size(), 2u);
}

// --- filters ---------------------------------------------------------------------

TEST(Filter, TopicComponent) {
  Filter f;
  f.set_topic(TopicExpression::parse(Dialect::kConcrete, "job/done"));
  auto msg = xml::parse_element("<m/>");
  EXPECT_TRUE(f.accepts("job/done", *msg, nullptr));
  EXPECT_FALSE(f.accepts("job/started", *msg, nullptr));
}

TEST(Filter, MessageContentComponent) {
  Filter f;
  f.set_message_content("/Event[code > 3]");
  EXPECT_TRUE(f.accepts("t", *xml::parse_element("<Event><code>5</code></Event>"),
                        nullptr));
  EXPECT_FALSE(f.accepts("t", *xml::parse_element("<Event><code>2</code></Event>"),
                         nullptr));
}

TEST(Filter, ProducerPropertiesComponent) {
  Filter f;
  f.set_producer_properties("Load < 10");
  auto msg = xml::parse_element("<m/>");
  auto low = xml::parse_element("<RP><Load>3</Load></RP>");
  auto high = xml::parse_element("<RP><Load>30</Load></RP>");
  EXPECT_TRUE(f.accepts("t", *msg, low.get()));
  EXPECT_FALSE(f.accepts("t", *msg, high.get()));
  EXPECT_FALSE(f.accepts("t", *msg, nullptr));  // no RP doc, filter present
}

TEST(Filter, AllComponentsMustPass) {
  Filter f;
  f.set_topic(TopicExpression::parse(Dialect::kConcrete, "job/done"));
  f.set_message_content("/Event[ok='true']");
  auto good = xml::parse_element("<Event><ok>true</ok></Event>");
  auto bad = xml::parse_element("<Event><ok>false</ok></Event>");
  EXPECT_TRUE(f.accepts("job/done", *good, nullptr));
  EXPECT_FALSE(f.accepts("job/done", *bad, nullptr));
  EXPECT_FALSE(f.accepts("job/started", *good, nullptr));
}

TEST(Filter, EmptyFilterAcceptsEverything) {
  Filter f;
  EXPECT_TRUE(f.accepts("anything", *xml::parse_element("<m/>"), nullptr));
}

TEST(Filter, XmlRoundTrip) {
  Filter f;
  f.set_topic(TopicExpression::parse(Dialect::kFull, "job/*"));
  f.set_message_content("/Event[code=1]");
  auto el = f.to_xml(xml::QName(soap::ns::kWsnBase, "Filter"));
  Filter back = Filter::from_xml(*el);
  EXPECT_TRUE(back.accepts("job/x", *xml::parse_element("<Event><code>1</code></Event>"),
                           nullptr));
  EXPECT_FALSE(back.accepts("job/x", *xml::parse_element("<Event><code>2</code></Event>"),
                            nullptr));
}

// --- end-to-end producer/consumer fixture ---------------------------------------------

struct WsnFixture {
  common::ManualClock clock{1000};
  net::VirtualNetwork net;
  xmldb::XmlDatabase db{std::make_unique<xmldb::MemoryBackend>(), {}};
  container::Container container{{.clock = &clock}};
  wsrf::ResourceHome sub_home{db, "subs", &container.lifetime()};
  std::unique_ptr<SubscriptionManagerService> manager;
  std::unique_ptr<container::Service> source_service;
  std::unique_ptr<net::VirtualCaller> caller;
  std::unique_ptr<net::VirtualCaller> sink;
  std::unique_ptr<NotificationProducer> producer;
  NotificationConsumer consumer;

  WsnFixture() {
    manager = std::make_unique<SubscriptionManagerService>(
        sub_home, "http://p/Subscriptions");
    source_service = std::make_unique<container::Service>("Source");
    caller = std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
    sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.keep_alive = false});
    TopicNamespace topics;
    topics.add("job/done");
    topics.add("job/started");
    producer = std::make_unique<NotificationProducer>(
        NotificationProducer::Config{sink.get(), "http://p/Source",
                                     manager.get(), &clock},
        std::move(topics));
    producer->register_into(*source_service);
    container.deploy("/Source", *source_service);
    container.deploy("/Subscriptions", *manager);
    net.bind("p", container);
    net.bind("c", consumer);
  }

  NotificationProducerProxy producer_proxy() {
    return NotificationProducerProxy(*caller,
                                     soap::EndpointReference("http://p/Source"));
  }

  Filter topic_filter(const char* topic) {
    Filter f;
    f.set_topic(TopicExpression::parse(Dialect::kConcrete, topic));
    return f;
  }

  std::unique_ptr<xml::Element> event(const char* code = "0") {
    auto e = std::make_unique<xml::Element>(app("Event"));
    e->append_element(app("code")).set_text(code);
    return e;
  }
};

TEST(Notification, SubscribeAndReceiveWrapped) {
  WsnFixture fx;
  auto proxy = fx.producer_proxy();
  proxy.subscribe(soap::EndpointReference("http://c/sink"),
                  fx.topic_filter("job/done"));
  auto ev = fx.event("7");
  EXPECT_EQ(fx.producer->notify("job/done", *ev), 1u);
  ASSERT_TRUE(fx.consumer.wait_for(1, 1000));
  auto received = fx.consumer.received();
  EXPECT_EQ(received[0].topic, "job/done");
  EXPECT_EQ(received[0].producer_address, "http://p/Source");
  ASSERT_TRUE(received[0].payload);
  EXPECT_EQ(received[0].payload->child(app("code"))->text(), "7");
}

TEST(Notification, TopicFilterSuppressesOtherTopics) {
  WsnFixture fx;
  fx.producer_proxy().subscribe(soap::EndpointReference("http://c/sink"),
                                fx.topic_filter("job/done"));
  auto ev = fx.event();
  EXPECT_EQ(fx.producer->notify("job/started", *ev), 0u);
  EXPECT_EQ(fx.consumer.count(), 0u);
}

TEST(Notification, SubscribeToUnsupportedTopicFaults) {
  WsnFixture fx;
  auto proxy = fx.producer_proxy();
  EXPECT_THROW(proxy.subscribe(soap::EndpointReference("http://c/sink"),
                               fx.topic_filter("unknown/topic")),
               soap::SoapFault);
}

TEST(Notification, ContentFilterApplies) {
  WsnFixture fx;
  Filter f;
  f.set_topic(TopicExpression::parse(Dialect::kConcrete, "job/done"));
  f.set_message_content("/Event[code > 5]");
  fx.producer_proxy().subscribe(soap::EndpointReference("http://c/sink"), f);
  auto low = fx.event("2");
  auto high = fx.event("9");
  EXPECT_EQ(fx.producer->notify("job/done", *low), 0u);
  EXPECT_EQ(fx.producer->notify("job/done", *high), 1u);
}

TEST(Notification, MultipleSubscribersAllReceive) {
  WsnFixture fx;
  NotificationConsumer consumer2;
  fx.net.bind("c2", consumer2);
  fx.producer_proxy().subscribe(soap::EndpointReference("http://c/sink"),
                                fx.topic_filter("job/done"));
  fx.producer_proxy().subscribe(soap::EndpointReference("http://c2/sink"),
                                fx.topic_filter("job/done"));
  auto ev = fx.event();
  EXPECT_EQ(fx.producer->notify("job/done", *ev), 2u);
  EXPECT_TRUE(fx.consumer.wait_for(1, 1000));
  EXPECT_TRUE(consumer2.wait_for(1, 1000));
}

TEST(Notification, UnsubscribeStopsDelivery) {
  WsnFixture fx;
  soap::EndpointReference sub_epr = fx.producer_proxy().subscribe(
      soap::EndpointReference("http://c/sink"), fx.topic_filter("job/done"));
  SubscriptionProxy sub(*fx.caller, sub_epr);
  sub.unsubscribe();
  auto ev = fx.event();
  EXPECT_EQ(fx.producer->notify("job/done", *ev), 0u);
}

TEST(Notification, PauseAndResume) {
  WsnFixture fx;
  soap::EndpointReference sub_epr = fx.producer_proxy().subscribe(
      soap::EndpointReference("http://c/sink"), fx.topic_filter("job/done"));
  SubscriptionProxy sub(*fx.caller, sub_epr);
  sub.pause();
  auto ev = fx.event();
  EXPECT_EQ(fx.producer->notify("job/done", *ev), 0u);
  sub.resume();
  EXPECT_EQ(fx.producer->notify("job/done", *ev), 1u);
}

TEST(Notification, SubscriptionLifetimeExpires) {
  WsnFixture fx;
  fx.producer_proxy().subscribe(soap::EndpointReference("http://c/sink"),
                                fx.topic_filter("job/done"),
                                /*initial_lifetime_ms=*/5000);
  auto ev = fx.event();
  EXPECT_EQ(fx.producer->notify("job/done", *ev), 1u);
  fx.clock.advance(5001);
  // A request (any request) sweeps the lifetime manager.
  (void)fx.container.process(soap::Envelope(), "/Subscriptions");
  EXPECT_EQ(fx.producer->notify("job/done", *ev), 0u);
}

TEST(Notification, RawDeliveryLosesTopicContext) {
  // The paper: raw delivery is "particularly problematic ... the
  // information passed with a notification is not well-defined". A raw
  // message arrives as a bare payload: no topic, no producer.
  WsnFixture fx;
  fx.producer_proxy().subscribe(soap::EndpointReference("http://c/sink"),
                                fx.topic_filter("job/done"),
                                /*initial_lifetime_ms=*/-1, /*use_raw=*/true);
  auto ev = fx.event("9");
  EXPECT_EQ(fx.producer->notify("job/done", *ev), 1u);
  ASSERT_TRUE(fx.consumer.wait_for(1, 1000));
  auto received = fx.consumer.received();
  EXPECT_TRUE(received[0].raw);
  EXPECT_EQ(received[0].topic, "");             // gone
  EXPECT_EQ(received[0].producer_address, "");  // gone
  ASSERT_TRUE(received[0].payload);
  EXPECT_EQ(received[0].payload->child(app("code"))->text(), "9");
}

TEST(Notification, ProducerPropertiesFilterAgainstRpDocument) {
  WsnFixture fx;
  Filter f;
  f.set_producer_properties("Load < 5");
  fx.producer_proxy().subscribe(soap::EndpointReference("http://c/sink"), f);
  auto rp_low = xml::parse_element("<RP><Load>1</Load></RP>");
  auto rp_high = xml::parse_element("<RP><Load>50</Load></RP>");
  auto ev = fx.event();
  EXPECT_EQ(fx.producer->notify("t", *ev, rp_low.get()), 1u);
  EXPECT_EQ(fx.producer->notify("t", *ev, rp_high.get()), 0u);
}

TEST(Notification, UnreachableConsumerDoesNotStarveOthers) {
  WsnFixture fx;
  fx.producer_proxy().subscribe(soap::EndpointReference("http://gone/sink"),
                                fx.topic_filter("job/done"));
  fx.producer_proxy().subscribe(soap::EndpointReference("http://c/sink"),
                                fx.topic_filter("job/done"));
  auto ev = fx.event();
  EXPECT_EQ(fx.producer->notify("job/done", *ev), 1u);  // best-effort
  EXPECT_TRUE(fx.consumer.wait_for(1, 1000));
}

// Regression: a Subscribe whose InitialTerminationTime is not a number must
// come back as a Sender fault — it used to reach std::stoll and escape as an
// uncaught std::invalid_argument.
TEST(Notification, GarbageInitialTerminationTimeFaults) {
  WsnFixture fx;
  xml::QName wsnt_q(soap::ns::kWsnBase, "Subscribe");
  for (const char* bad : {"soon-ish", "", "120q", "12 34"}) {
    soap::Envelope request;
    soap::MessageInfo info;
    info.target(soap::EndpointReference("http://p/Source"));
    info.action = actions::kSubscribe;
    info.message_id = "urn:test:garbage-itt";
    request.write_addressing(info);
    xml::Element& sub = request.add_payload(wsnt_q);
    sub.append(soap::EndpointReference("http://c/sink")
                   .to_xml({soap::ns::kWsnBase, "ConsumerReference"}));
    sub.append_element({soap::ns::kWsnBase, "InitialTerminationTime"})
        .set_text(bad);
    soap::Envelope response = fx.caller->call("http://p/Source", request);
    ASSERT_TRUE(response.is_fault()) << "no fault for '" << bad << "'";
    EXPECT_EQ(response.fault().code, "Sender") << "for '" << bad << "'";
  }
  EXPECT_TRUE(fx.manager->subscriptions().empty());
}

// --- the live subscription table -----------------------------------------------------

TEST(SubscriptionTable, NotifyReadsNoSubscriptionDocuments) {
  WsnFixture fx;
  for (int i = 0; i < 2; ++i) {
    fx.producer_proxy().subscribe(soap::EndpointReference("http://c/sink"),
                                  fx.topic_filter("job/done"));
  }
  fx.db.reset_stats();
  auto ev = fx.event();
  EXPECT_EQ(fx.producer->notify("job/done", *ev), 2u);
  EXPECT_TRUE(fx.producer->has_active_subscriber("job/done"));
  EXPECT_EQ(fx.db.stats().loads, 0u);
}

TEST(SubscriptionTable, UnsubscribeAndExpiryEraseEntries) {
  WsnFixture fx;
  soap::EndpointReference kept = fx.producer_proxy().subscribe(
      soap::EndpointReference("http://c/sink"), fx.topic_filter("job/done"));
  fx.producer_proxy().subscribe(soap::EndpointReference("http://c/sink"),
                                fx.topic_filter("job/done"),
                                /*initial_lifetime_ms=*/5000);
  EXPECT_EQ(fx.manager->count(), 2u);
  fx.clock.advance(5001);
  (void)fx.container.process(soap::Envelope(), "/Subscriptions");  // sweeps
  EXPECT_EQ(fx.manager->count(), 1u);
  SubscriptionProxy(*fx.caller, kept).unsubscribe();
  EXPECT_EQ(fx.manager->count(), 0u);
  EXPECT_TRUE(fx.manager->subscriptions().empty());
  EXPECT_TRUE(fx.sub_home.ids().empty());
  EXPECT_FALSE(fx.producer->has_active_subscriber("job/done"));
}

TEST(SubscriptionTable, RecoveryRebuildsFiltersAndPauseState) {
  WsnFixture fx;
  Filter content = fx.topic_filter("job/done");
  content.set_message_content("/Event[code='7']");
  fx.producer_proxy().subscribe(soap::EndpointReference("http://c/sink"),
                                content);
  soap::EndpointReference paused_epr = fx.producer_proxy().subscribe(
      soap::EndpointReference("http://c/sink"), fx.topic_filter("job/done"));
  SubscriptionProxy paused(*fx.caller, paused_epr);
  paused.pause();

  EXPECT_EQ(fx.manager->recover(), 2u);
  auto seven = fx.event("7");
  auto eight = fx.event("8");
  EXPECT_EQ(fx.producer->notify("job/done", *seven), 1u);
  EXPECT_EQ(fx.producer->notify("job/done", *eight), 0u);
  paused.resume();
  EXPECT_EQ(fx.producer->notify("job/done", *eight), 1u);
}

TEST(SubscriptionTable, CorruptPersistedSubscriptionDoesNotBlockDelivery) {
  WsnFixture fx;
  fx.producer_proxy().subscribe(soap::EndpointReference("http://c/sink"),
                                fx.topic_filter("job/done"));
  // A second subscription document whose MessageContent no longer
  // compiles, as recovery would find it on a damaged medium.
  Subscription bad;
  bad.consumer = soap::EndpointReference("http://c/other");
  auto doc = subscription_to_xml(bad);
  doc->child({soap::ns::kWsnBase, "Filter"})
      ->append_element({soap::ns::kWsnBase, "MessageContent"})
      .set_text("//[[[");
  std::string bad_id = fx.sub_home.create(std::move(doc));

  std::uint64_t warns =
      telemetry::EventLog::global().count(telemetry::Level::kWarn);
  EXPECT_EQ(fx.manager->recover(), 1u);
  EXPECT_EQ(telemetry::EventLog::global().count(telemetry::Level::kWarn),
            warns + 1);
  auto ev = fx.event();
  EXPECT_EQ(fx.producer->notify("job/done", *ev), 1u);
  EXPECT_EQ(fx.consumer.count(), 1u);
  // The document stays on the medium; destroying it still works.
  EXPECT_TRUE(fx.sub_home.destroy(bad_id));
  EXPECT_EQ(fx.manager->count(), 1u);
}

// --- broker / demand-based publishing ---------------------------------------------------

struct BrokerFixture {
  common::ManualClock clock{1000};
  net::VirtualNetwork net;
  net::WireMeter meter;
  std::unique_ptr<net::VirtualCaller> caller;

  // Publisher side (a full producer of its own).
  WsnFixture publisher;

  // Broker side.
  xmldb::XmlDatabase broker_db{std::make_unique<xmldb::MemoryBackend>(), {}};
  container::Container broker_container{{.clock = &clock}};
  wsrf::ResourceHome broker_subs{broker_db, "broker-subs",
                                 &broker_container.lifetime()};
  wsrf::ResourceHome registrations{broker_db, "registrations",
                                   &broker_container.lifetime()};
  std::unique_ptr<SubscriptionManagerService> broker_manager;
  std::unique_ptr<BrokerService> broker;

  NotificationConsumer consumer;

  BrokerFixture() {
    caller = std::make_unique<net::VirtualCaller>(
        publisher.net, net::VirtualCaller::Options{.meter = &meter});
    broker_manager = std::make_unique<SubscriptionManagerService>(
        broker_subs, "http://b/Subscriptions");
    TopicNamespace topics;
    topics.add("job/done");
    broker = std::make_unique<BrokerService>(
        BrokerService::Config{caller.get(), "http://b/Broker",
                              broker_manager.get(), &clock},
        registrations, std::move(topics));
    broker_container.deploy("/Broker", *broker);
    broker_container.deploy("/Subscriptions", *broker_manager);
    publisher.net.bind("b", broker_container);
    publisher.net.bind("bc", consumer);
  }

  BrokerProxy broker_proxy() {
    return BrokerProxy(*caller, soap::EndpointReference("http://b/Broker"));
  }
};

TEST(Broker, RelaysPublisherNotificationsToConsumers) {
  BrokerFixture fx;
  // Consumer subscribes at the broker.
  NotificationProducerProxy broker_sub(*fx.caller,
                                       soap::EndpointReference("http://b/Broker"));
  Filter f;
  f.set_topic(TopicExpression::parse(Dialect::kConcrete, "job/done"));
  broker_sub.subscribe(soap::EndpointReference("http://bc/sink"), f);

  // Publisher registers (non-demand) — broker subscribes back to it.
  fx.broker_proxy().register_publisher(
      soap::EndpointReference("http://p/Source"), {"job/done"}, false);

  // Publisher publishes; the broker receives and re-publishes.
  xml::Element ev(app("Event"));
  ev.append_element(app("code")).set_text("1");
  EXPECT_EQ(fx.publisher.producer->notify("job/done", ev), 1u);  // to broker
  ASSERT_TRUE(fx.consumer.wait_for(1, 2000));
  EXPECT_EQ(fx.consumer.received()[0].topic, "job/done");
}

TEST(Broker, DemandBasedRegistrationStartsPaused) {
  BrokerFixture fx;
  fx.broker_proxy().register_publisher(
      soap::EndpointReference("http://p/Source"), {"job/done"}, true);
  // No consumers at the broker: the publisher-side subscription is paused,
  // so a publish reaches nobody.
  xml::Element ev(app("Event"));
  EXPECT_EQ(fx.publisher.producer->notify("job/done", ev), 0u);
}

TEST(Broker, DemandResumesWhenConsumerAppears) {
  BrokerFixture fx;
  fx.broker_proxy().register_publisher(
      soap::EndpointReference("http://p/Source"), {"job/done"}, true);

  // First consumer arrives at the broker: demand now exists, the broker
  // resumes its publisher-side subscription.
  NotificationProducerProxy broker_sub(*fx.caller,
                                       soap::EndpointReference("http://b/Broker"));
  Filter f;
  f.set_topic(TopicExpression::parse(Dialect::kConcrete, "job/done"));
  broker_sub.subscribe(soap::EndpointReference("http://bc/sink"), f);

  xml::Element ev(app("Event"));
  ev.append_element(app("code")).set_text("42");
  EXPECT_EQ(fx.publisher.producer->notify("job/done", ev), 1u);
  ASSERT_TRUE(fx.consumer.wait_for(1, 2000));
}

TEST(Broker, DemandPausesAgainWhenLastConsumerLeaves) {
  BrokerFixture fx;
  fx.broker_proxy().register_publisher(
      soap::EndpointReference("http://p/Source"), {"job/done"}, true);

  NotificationProducerProxy broker_sub(*fx.caller,
                                       soap::EndpointReference("http://b/Broker"));
  Filter f;
  f.set_topic(TopicExpression::parse(Dialect::kConcrete, "job/done"));
  soap::EndpointReference sub_epr =
      broker_sub.subscribe(soap::EndpointReference("http://bc/sink"), f);

  SubscriptionProxy sub(*fx.caller, sub_epr);
  sub.unsubscribe();
  fx.broker->recheck_demand();

  xml::Element ev(app("Event"));
  EXPECT_EQ(fx.publisher.producer->notify("job/done", ev), 0u);  // paused again
}

TEST(Broker, DemandRegistrationAmplifiesMessageCount) {
  // The paper: "a demand based publisher registration interaction can
  // involve as many as six separate Web services" and an order of
  // magnitude more messages. Count the control messages the registration
  // triggers.
  BrokerFixture fx;
  fx.meter.reset();
  fx.broker_proxy().register_publisher(
      soap::EndpointReference("http://p/Source"), {"job/done"}, true);
  // RegisterPublisher + broker->publisher Subscribe + broker->manager
  // Pause, each a request/response pair: >= 6 messages for one logical
  // registration.
  EXPECT_GE(fx.meter.messages(), 6);
}

}  // namespace
}  // namespace gs::wsn
