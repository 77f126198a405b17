// Tests for the "hello world" counter on both stacks — the paper's §4.1
// application, including the behavioural differences the evaluation
// explains (resource-cache reads, notification delivery paths).
#include <gtest/gtest.h>

#include "counter/wsrf_counter.hpp"
#include "counter/wst_counter.hpp"
#include "telemetry/event_log.hpp"
#include "wsn/consumer.hpp"

namespace gs::counter {
namespace {

struct TwinFixture {
  net::VirtualNetwork net{net::NetworkProfile::colocated()};
  net::WireMeter meter;
  std::unique_ptr<net::VirtualCaller> caller;
  std::unique_ptr<net::VirtualCaller> http_sink;  // WSRF.NET-style notify
  std::unique_ptr<net::VirtualCaller> tcp_sink;   // Plumbwork-style notify
  std::unique_ptr<WsrfCounterDeployment> wsrf;
  std::unique_ptr<WstCounterDeployment> wst;
  wsn::NotificationConsumer consumer;

  TwinFixture(bool wsrf_cache = true) {
    caller = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.meter = &meter});
    http_sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.keep_alive = false, .meter = &meter});
    tcp_sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{
                 .transport = net::TransportKind::kSoapTcp, .meter = &meter});
    wsrf = std::make_unique<WsrfCounterDeployment>(WsrfCounterDeployment::Params{
        .backend = std::make_unique<xmldb::MemoryBackend>(),
        .write_through_cache = wsrf_cache,
        .container = {},
        .notification_sink = http_sink.get(),
        .address_base = "http://wsrf.example",
    });
    wst = std::make_unique<WstCounterDeployment>(WstCounterDeployment::Params{
        .backend = std::make_unique<xmldb::MemoryBackend>(),
        .container = {},
        .notification_sink = tcp_sink.get(),
        .address_base = "http://wst.example",
        .subscription_file = {},
    });
    net.bind("wsrf.example", wsrf->container());
    net.bind("wst.example", wst->container());
    net.bind("client.example", consumer);
  }

  WsrfCounterClient wsrf_client() {
    return WsrfCounterClient(*caller, wsrf->counter_address());
  }
  WstCounterClient wst_client() {
    return WstCounterClient(*caller, wst->counter_address(),
                            wst->source_address());
  }
  soap::EndpointReference consumer_epr() {
    return soap::EndpointReference("http://client.example/sink");
  }
};

// --- functional parity: both stacks implement the same counter -------------------

TEST(Counter, WsrfLifecycle) {
  TwinFixture fx;
  auto client = fx.wsrf_client();
  client.create();
  EXPECT_EQ(client.get(), 0);
  client.set(41);
  EXPECT_EQ(client.get(), 41);
  EXPECT_EQ(client.double_value(), 82);
  client.destroy();
  EXPECT_THROW(client.get(), soap::SoapFault);
}

TEST(Counter, WstLifecycle) {
  TwinFixture fx;
  auto client = fx.wst_client();
  client.create();
  EXPECT_EQ(client.get(), 0);
  client.set(41);
  EXPECT_EQ(client.get(), 41);
  client.remove();
  EXPECT_THROW(client.get(), soap::SoapFault);
}

TEST(Counter, MultipleIndependentCounters) {
  TwinFixture fx;
  auto a = fx.wsrf_client();
  auto b = fx.wsrf_client();
  a.create();
  b.create();
  a.set(1);
  b.set(2);
  EXPECT_EQ(a.get(), 1);
  EXPECT_EQ(b.get(), 2);

  auto c = fx.wst_client();
  auto d = fx.wst_client();
  c.create();
  d.create();
  c.set(3);
  d.set(4);
  EXPECT_EQ(c.get(), 3);
  EXPECT_EQ(d.get(), 4);
}

TEST(Counter, ClientsCanAttachToExistingResources) {
  TwinFixture fx;
  auto creator = fx.wsrf_client();
  soap::EndpointReference epr = creator.create();
  creator.set(9);
  WsrfCounterClient other(*fx.caller, fx.wsrf->counter_address());
  other.attach(epr);
  EXPECT_EQ(other.get(), 9);
}

// --- notifications -----------------------------------------------------------------

TEST(Counter, WsrfNotifiesOnSet) {
  TwinFixture fx;
  auto client = fx.wsrf_client();
  client.create();
  auto sub = client.subscribe(fx.consumer_epr());
  client.set(5);
  ASSERT_TRUE(fx.consumer.wait_for(1, 2000));
  auto received = fx.consumer.received();
  EXPECT_EQ(received[0].topic, kValueChangedTopic);
  ASSERT_TRUE(received[0].payload);
  EXPECT_EQ(received[0].payload->child_local("Value")->text(), "5");
  // The message carries the counter EPR so multi-counter clients can
  // disambiguate.
  EXPECT_NE(received[0].payload->child_local("CounterEPR"), nullptr);
}

TEST(Counter, WstNotifiesOnSet) {
  TwinFixture fx;
  auto client = fx.wst_client();
  client.create();
  client.subscribe(fx.consumer_epr());
  client.set(6);
  ASSERT_TRUE(fx.consumer.wait_for(1, 2000));
  auto received = fx.consumer.received();
  ASSERT_TRUE(received[0].payload);
  EXPECT_EQ(received[0].payload->child_local("Value")->text(), "6");
}

TEST(Counter, UnsubscribedClientsGetNothing) {
  TwinFixture fx;
  auto client = fx.wsrf_client();
  client.create();
  auto sub = client.subscribe(fx.consumer_epr());
  sub.unsubscribe();
  client.set(1);
  EXPECT_EQ(fx.consumer.count(), 0u);
}

TEST(Counter, NoNotificationOnGet) {
  TwinFixture fx;
  auto client = fx.wsrf_client();
  client.create();
  client.subscribe(fx.consumer_epr());
  (void)client.get();
  (void)client.get();
  EXPECT_EQ(fx.consumer.count(), 0u);
}

// --- the database-read asymmetry the paper measures --------------------------------

TEST(Counter, WsrfSetSkipsDatabaseReadViaCache) {
  // "The WSRF.NET implementation through use of its resource cache is able
  // to avoid this extra database read and thus performs faster for set
  // operations."
  TwinFixture fx;
  auto client = fx.wsrf_client();
  client.create();
  fx.wsrf->db().reset_stats();
  client.set(10);
  xmldb::DbStats stats = fx.wsrf->db().stats();
  EXPECT_EQ(stats.backend_reads, 0u);  // served from the write-through cache
}

TEST(Counter, WstSetAlwaysReadsOldRepresentation) {
  // "setting the counter's value causes the old representation ... to be
  // read from the database and updated with the new value before being
  // stored."
  TwinFixture fx;
  auto client = fx.wst_client();
  client.create();
  fx.wst->db().reset_stats();
  client.set(10);
  xmldb::DbStats stats = fx.wst->db().stats();
  EXPECT_GE(stats.backend_reads, 1u);
  EXPECT_GE(stats.stores, 1u);
}

TEST(Counter, WsrfWithoutCacheReadsLikeWst) {
  // Ablation: disable the cache and the WSRF counter pays the same read.
  TwinFixture fx(/*wsrf_cache=*/false);
  auto client = fx.wsrf_client();
  client.create();
  fx.wsrf->db().reset_stats();
  client.set(10);
  EXPECT_GE(fx.wsrf->db().stats().backend_reads, 1u);
}

TEST(Counter, WsrfNotifyingSetLoadsOnlyTheCounter) {
  // The subscriptions come from the manager's live table and the event
  // from the document the Set committed: one load, whatever the fan-out.
  TwinFixture fx;
  auto client = fx.wsrf_client();
  client.create();
  constexpr std::size_t kSubscribers = 3;
  for (std::size_t i = 0; i < kSubscribers; ++i) {
    client.subscribe(fx.consumer_epr());
  }
  fx.wsrf->db().reset_stats();
  client.set(7);
  EXPECT_EQ(fx.wsrf->db().stats().loads, 1u);
  ASSERT_EQ(fx.consumer.count(), kSubscribers);
  EXPECT_EQ(fx.consumer.received()[0].payload->child_local("Value")->text(), "7");
}

TEST(Counter, WsrfCorruptPersistedSubscriptionDoesNotFailSet) {
  TwinFixture fx;
  auto client = fx.wsrf_client();
  client.create();
  client.subscribe(fx.consumer_epr());
  // A subscription document whose MessageContent no longer compiles, as a
  // restarted deployment would find it on a damaged medium.
  wsn::Subscription bad;
  bad.consumer = fx.consumer_epr();
  auto doc = wsn::subscription_to_xml(bad);
  doc->child({soap::ns::kWsnBase, "Filter"})
      ->append_element({soap::ns::kWsnBase, "MessageContent"})
      .set_text("//[[[");
  fx.wsrf->db().store("counter-subscriptions", "corrupt", *doc);
  std::uint64_t warns =
      telemetry::EventLog::global().count(telemetry::Level::kWarn);
  fx.wsrf->recover();
  EXPECT_GT(telemetry::EventLog::global().count(telemetry::Level::kWarn), warns);

  EXPECT_NO_THROW(client.set(9));
  EXPECT_EQ(fx.consumer.count(), 1u);
  EXPECT_EQ(client.get(), 9);
}

// --- spec-surface differences ---------------------------------------------------------

TEST(Counter, WsrfCreateIsServiceSpecific) {
  // WSRF has no spec-defined create: the counter's create action lives in
  // the *counter's* namespace, not a WSRF one.
  EXPECT_TRUE(wsrf_counter_create_action().starts_with(soap::ns::kCounter));
}

TEST(Counter, WstCreateIsSpecUniform) {
  // WS-Transfer's Create is the spec operation; any WS-Transfer client can
  // create without knowing counter-specific actions.
  TwinFixture fx;
  wst::TransferProxy generic(*fx.caller,
                             soap::EndpointReference(fx.wst->counter_address()));
  auto doc = std::make_unique<xml::Element>(
      xml::QName(soap::ns::kCounter, "Counter"));
  doc->append_element(cv_qname()).set_text("0");
  auto result = generic.create(std::move(doc));
  EXPECT_FALSE(result.resource.empty());
}

TEST(Counter, WstClientMustKnowSchemaOutOfBand) {
  // Upload a document that is NOT counter-shaped: the service stores it
  // happily (xsd:any), and only the typed client chokes when reading.
  TwinFixture fx;
  wst::TransferProxy generic(*fx.caller,
                             soap::EndpointReference(fx.wst->counter_address()));
  auto junk = std::make_unique<xml::Element>(xml::QName("urn:junk", "Blob"));
  junk->set_text("not a counter");
  auto result = generic.create(std::move(junk));

  WstCounterClient typed(*fx.caller, fx.wst->counter_address(),
                         fx.wst->source_address());
  typed.attach(result.resource);
  EXPECT_THROW(typed.get(), soap::SoapFault);  // schema drift detected late
}

// --- malformed numeric state (strict-parsing sweep) -------------------------------

// WS-Transfer stores documents as xsd:any, so nothing stops a peer putting
// non-numeric text where the counter value goes. The typed client must
// answer with a fault, not crash the process the way std::stoi did.
TEST(Counter, WstMalformedValueFaultsInsteadOfCrashing) {
  TwinFixture fx;
  for (const char* bad : {"12abc", "boom", "", "99999999999999999999"}) {
    wst::TransferProxy generic(
        *fx.caller, soap::EndpointReference(fx.wst->counter_address()));
    auto doc = std::make_unique<xml::Element>(
        xml::QName(soap::ns::kCounter, "Counter"));
    doc->append_element(cv_qname()).set_text(bad);
    auto result = generic.create(std::move(doc));

    WstCounterClient typed(*fx.caller, fx.wst->counter_address(),
                           fx.wst->source_address());
    typed.attach(result.resource);
    EXPECT_THROW(typed.get(), soap::SoapFault) << "cv=" << bad;
  }
}

TEST(Counter, WsrfMalformedPropertyFaultsInsteadOfCrashing) {
  TwinFixture fx;
  auto client = fx.wsrf_client();
  soap::EndpointReference epr = client.create();
  wsrf::WsResourceProxy raw(*fx.caller, epr);
  for (const char* bad : {"12abc", "boom", "", "99999999999999999999"}) {
    raw.update_property_text(cv_qname(), bad);
    EXPECT_THROW(client.get(), soap::SoapFault) << "cv=" << bad;
  }
  raw.update_property_text(cv_qname(), "5");
  EXPECT_EQ(client.get(), 5);
}

TEST(Counter, WsrfComputedPropertyOverMalformedStateIsSenderFault) {
  // DoubleValue is computed server-side from the stored cv; garbage there
  // used to throw std::invalid_argument inside the property handler. Now
  // the server answers a Sender fault (the stored request state is bad).
  TwinFixture fx;
  auto client = fx.wsrf_client();
  soap::EndpointReference epr = client.create();
  wsrf::WsResourceProxy raw(*fx.caller, epr);
  raw.update_property_text(cv_qname(), "boom");
  try {
    client.double_value();
    FAIL() << "expected SoapFault";
  } catch (const soap::SoapFault& fault) {
    EXPECT_EQ(fault.fault().code, "Sender");
  }
}

TEST(Counter, WsrfResourceLifetimeAvailable) {
  // WSRF counters inherit scheduled termination from the imported
  // WS-ResourceLifetime port type — the WS-Transfer counter has no such
  // operation surface at all.
  TwinFixture fx;
  auto client = fx.wsrf_client();
  soap::EndpointReference epr = client.create();
  wsrf::WsResourceProxy rl(*fx.caller, epr);
  EXPECT_EQ(rl.set_termination_time(container::LifetimeManager::kNever),
            container::LifetimeManager::kNever);
}

}  // namespace
}  // namespace gs::counter
