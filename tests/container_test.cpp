// Tests for the resource-aware container: dispatch, the security/policy
// handler, lifetime management, and the client proxy base.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/encoding.hpp"
#include "container/container.hpp"
#include "container/proxy.hpp"
#include "net/virtual_network.hpp"
#include "telemetry/event_log.hpp"
#include "xml/writer.hpp"

namespace gs::container {
namespace {

const char* kNs = "urn:test";
xml::QName t(const char* local) { return {kNs, local}; }

class PingService : public Service {
 public:
  PingService() : Service("Ping") {
    register_operation("urn:test/Ping", [this](RequestContext& ctx) {
      ++pings;
      last_identity = ctx.identity ? ctx.identity->subject_dn : "";
      soap::Envelope r = make_response(ctx, "urn:test/PingResponse");
      r.add_payload(t("Pong")).set_text("pong");
      return r;
    });
    register_operation("urn:test/Fail", [](RequestContext&) -> soap::Envelope {
      throw soap::SoapFault("Sender", "deliberate failure");
    });
    register_operation("urn:test/Crash", [](RequestContext&) -> soap::Envelope {
      throw std::runtime_error("unexpected internal error");
    });
  }
  int pings = 0;
  std::string last_identity;
};

soap::Envelope make_request(const std::string& action) {
  soap::Envelope env;
  soap::MessageInfo info;
  info.action = action;
  info.message_id = "urn:uuid:test-1";
  env.write_addressing(info);
  env.add_payload(t("In"));
  return env;
}

// --- dispatch ----------------------------------------------------------------

TEST(Dispatch, RoutesToRegisteredOperation) {
  Container container({});
  PingService svc;
  container.deploy("/Ping", svc);
  soap::Envelope r = container.process(make_request("urn:test/Ping"), "/Ping");
  EXPECT_FALSE(r.is_fault());
  EXPECT_EQ(r.payload()->text(), "pong");
  EXPECT_EQ(svc.pings, 1);
}

TEST(Dispatch, ResponseRelatesToRequest) {
  Container container({});
  PingService svc;
  container.deploy("/Ping", svc);
  soap::Envelope r = container.process(make_request("urn:test/Ping"), "/Ping");
  EXPECT_EQ(r.read_addressing().relates_to, "urn:uuid:test-1");
}

TEST(Dispatch, UnknownPathFaults) {
  Container container({});
  soap::Envelope r = container.process(make_request("urn:test/Ping"), "/Nope");
  ASSERT_TRUE(r.is_fault());
  EXPECT_EQ(r.fault().code, "Sender");
}

TEST(Dispatch, UnknownActionFaults) {
  Container container({});
  PingService svc;
  container.deploy("/Ping", svc);
  soap::Envelope r = container.process(make_request("urn:test/Nope"), "/Ping");
  ASSERT_TRUE(r.is_fault());
  EXPECT_NE(r.fault().reason.find("does not support action"), std::string::npos);
}

TEST(Dispatch, SoapFaultFromHandlerBecomesFaultEnvelope) {
  Container container({});
  PingService svc;
  container.deploy("/Ping", svc);
  soap::Envelope r = container.process(make_request("urn:test/Fail"), "/Ping");
  ASSERT_TRUE(r.is_fault());
  EXPECT_EQ(r.fault().reason, "deliberate failure");
  EXPECT_EQ(r.fault().code, "Sender");
}

TEST(Dispatch, UnexpectedExceptionBecomesReceiverFault) {
  Container container({});
  PingService svc;
  container.deploy("/Ping", svc);
  soap::Envelope r = container.process(make_request("urn:test/Crash"), "/Ping");
  ASSERT_TRUE(r.is_fault());
  EXPECT_EQ(r.fault().code, "Receiver");
}

TEST(Dispatch, UndeployRemovesService) {
  Container container({});
  PingService svc;
  container.deploy("/Ping", svc);
  container.undeploy("/Ping");
  EXPECT_TRUE(container.process(make_request("urn:test/Ping"), "/Ping").is_fault());
}

TEST(Dispatch, ServiceListsItsActions) {
  PingService svc;
  EXPECT_TRUE(svc.supports("urn:test/Ping"));
  EXPECT_FALSE(svc.supports("urn:test/Nope"));
  EXPECT_EQ(svc.actions().size(), 3u);
}

TEST(Dispatch, HttpPipelineMapsFaultsTo500) {
  Container container({});
  PingService svc;
  container.deploy("/Ping", svc);

  net::HttpRequest http;
  http.path = "/Ping";
  http.body = make_request("urn:test/Fail").to_xml();
  net::HttpResponse resp = container.handle(http);
  EXPECT_EQ(resp.status, 500);
  EXPECT_TRUE(soap::Envelope::from_xml(resp.body_str()).is_fault());

  http.body = make_request("urn:test/Ping").to_xml();
  EXPECT_EQ(container.handle(http).status, 200);
}

TEST(Dispatch, MalformedBodyIs400) {
  Container container({});
  net::HttpRequest http;
  http.path = "/Ping";
  http.body = "this is not xml";
  EXPECT_EQ(container.handle(http).status, 400);
}

// --- security handler -----------------------------------------------------------

struct X509Fixture {
  std::mt19937_64 rng{31};
  security::CertificateAuthority ca =
      security::CertificateAuthority::create("CN=CA", 512, rng);
  security::Credential service_cred = ca.issue(
      "CN=service", 512, rng, 0, std::numeric_limits<common::TimeMs>::max());
  security::Credential alice = ca.issue(
      "CN=alice", 512, rng, 0, std::numeric_limits<common::TimeMs>::max());
};

TEST(SecurityHandler, X509ModeEstablishesIdentity) {
  X509Fixture fx;
  Container container({.security = SecurityMode::kX509,
                       .anchor = &fx.ca.root(),
                       .credential = &fx.service_cred});
  PingService svc;
  container.deploy("/Ping", svc);

  soap::Envelope req = make_request("urn:test/Ping");
  security::sign_envelope(req, fx.alice);
  soap::Envelope r = container.process(req, "/Ping");
  EXPECT_FALSE(r.is_fault());
  EXPECT_EQ(svc.last_identity, "CN=alice");
  // The response is signed by the service.
  EXPECT_TRUE(security::is_signed(r));
  EXPECT_EQ(security::verify_envelope(r, fx.ca.root(), 0).subject_dn,
            "CN=service");
}

TEST(SecurityHandler, X509ModeRejectsUnsignedRequests) {
  X509Fixture fx;
  Container container({.security = SecurityMode::kX509,
                       .anchor = &fx.ca.root(),
                       .credential = &fx.service_cred});
  PingService svc;
  container.deploy("/Ping", svc);
  soap::Envelope r = container.process(make_request("urn:test/Ping"), "/Ping");
  ASSERT_TRUE(r.is_fault());
  EXPECT_NE(r.fault().reason.find("security policy"), std::string::npos);
  EXPECT_EQ(svc.pings, 0);
  // Even the rejection is signed (client can authenticate the fault).
  EXPECT_TRUE(security::is_signed(r));
}

TEST(SecurityHandler, X509ModeRejectsTamperedRequests) {
  X509Fixture fx;
  Container container({.security = SecurityMode::kX509,
                       .anchor = &fx.ca.root(),
                       .credential = &fx.service_cred});
  PingService svc;
  container.deploy("/Ping", svc);
  soap::Envelope req = make_request("urn:test/Ping");
  security::sign_envelope(req, fx.alice);
  req.payload()->set_text("tampered");
  EXPECT_TRUE(container.process(req, "/Ping").is_fault());
  EXPECT_EQ(svc.pings, 0);
}

TEST(SecurityHandler, X509ModeRejectsATokenWithBadKeyHex) {
  // A non-hex digit in the token's Modulus must come back as the security
  // fault, not escape the handler as an untyped exception.
  X509Fixture fx;
  Container container({.security = SecurityMode::kX509,
                       .anchor = &fx.ca.root(),
                       .credential = &fx.service_cred});
  PingService svc;
  container.deploy("/Ping", svc);
  soap::Envelope req = make_request("urn:test/Ping");
  security::sign_envelope(req, fx.alice);

  const std::string good_token = fx.alice.cert.to_token();
  auto cert_xml = fx.alice.cert.to_xml();
  xml::Element* modulus = cert_xml->child_local("PublicKey")->child_local("Modulus");
  modulus->set_text("z" + modulus->text().substr(1));
  const std::string bad_token =
      common::base64_encode(common::as_bytes(xml::write(*cert_xml)));
  std::string wire = req.to_xml();
  ASSERT_NE(wire.find(good_token), std::string::npos);
  wire.replace(wire.find(good_token), good_token.size(), bad_token);

  soap::Envelope r = container.process(soap::Envelope::from_xml(wire), "/Ping");
  ASSERT_TRUE(r.is_fault());
  EXPECT_NE(r.fault().reason.find("security policy rejected request"),
            std::string::npos);
  EXPECT_NE(r.fault().reason.find("Modulus"), std::string::npos);
  EXPECT_EQ(svc.pings, 0);
}

TEST(SecurityHandler, MisconfiguredX509ContainerThrows) {
  EXPECT_THROW(Container({.security = SecurityMode::kX509}),
               std::invalid_argument);
}

TEST(SecurityHandler, NoneModeIgnoresSignatures) {
  Container container({});
  PingService svc;
  container.deploy("/Ping", svc);
  soap::Envelope r = container.process(make_request("urn:test/Ping"), "/Ping");
  EXPECT_FALSE(r.is_fault());
  EXPECT_EQ(svc.last_identity, "");
}

// --- lifetime manager -------------------------------------------------------------

TEST(Lifetime, SweepDestroysExpired) {
  common::ManualClock clock(1000);
  LifetimeManager lm(clock);
  int destroyed = 0;
  lm.schedule(1500, [&] { ++destroyed; });
  lm.schedule(2500, [&] { ++destroyed; });
  EXPECT_EQ(lm.active(), 2u);

  clock.set(1600);
  EXPECT_EQ(lm.sweep(), 1u);
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(lm.active(), 1u);

  clock.set(3000);
  EXPECT_EQ(lm.sweep(), 1u);
  EXPECT_EQ(destroyed, 2);
}

TEST(Lifetime, NeverEntriesSurviveSweeps) {
  common::ManualClock clock(0);
  LifetimeManager lm(clock);
  lm.schedule(LifetimeManager::kNever, [] {});
  clock.set(std::numeric_limits<common::TimeMs>::max() - 1);
  EXPECT_EQ(lm.sweep(), 0u);
  EXPECT_EQ(lm.active(), 1u);
}

TEST(Lifetime, SetTerminationTimeExtends) {
  common::ManualClock clock(0);
  LifetimeManager lm(clock);
  int destroyed = 0;
  auto handle = lm.schedule(100, [&] { ++destroyed; });
  EXPECT_TRUE(lm.set_termination_time(handle, 10'000));
  clock.set(5000);
  EXPECT_EQ(lm.sweep(), 0u);
  EXPECT_EQ(lm.termination_time(handle), 10'000);
  clock.set(10'001);
  EXPECT_EQ(lm.sweep(), 1u);
  EXPECT_EQ(destroyed, 1);
}

TEST(Lifetime, ExplicitDestroyRunsCallbackOnce) {
  common::ManualClock clock(0);
  LifetimeManager lm(clock);
  int destroyed = 0;
  auto handle = lm.schedule(LifetimeManager::kNever, [&] { ++destroyed; });
  EXPECT_TRUE(lm.destroy(handle));
  EXPECT_FALSE(lm.destroy(handle));
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(lm.set_termination_time(handle, 5));
}

TEST(Lifetime, CancelSkipsCallback) {
  common::ManualClock clock(0);
  LifetimeManager lm(clock);
  int destroyed = 0;
  auto handle = lm.schedule(10, [&] { ++destroyed; });
  EXPECT_TRUE(lm.cancel(handle));
  clock.set(100);
  EXPECT_EQ(lm.sweep(), 0u);
  EXPECT_EQ(destroyed, 0);
}

TEST(Lifetime, ContainerSweepsOnEveryRequest) {
  common::ManualClock clock(0);
  Container container({.clock = &clock});
  PingService svc;
  container.deploy("/Ping", svc);
  int destroyed = 0;
  container.lifetime().schedule(50, [&] { ++destroyed; });
  clock.set(100);
  (void)container.process(make_request("urn:test/Ping"), "/Ping");
  EXPECT_EQ(destroyed, 1);
}

// A throwing callback must not cost later due entries their destruction
// (their entries are already unregistered, so a skipped callback never
// runs), nor fail the request whose sweep found them due.
TEST(Lifetime, FailingCallbackDoesNotDropLaterOnes) {
  common::ManualClock clock(0);
  LifetimeManager lm(clock);
  telemetry::Counter& failures =
      telemetry::MetricsRegistry::global().counter("container.lifetime_failures");
  std::uint64_t failures_before = failures.value();
  int destroyed = 0;
  lm.schedule(0, [] { throw std::runtime_error("wal remove failed"); });
  lm.schedule(0, [&] { ++destroyed; });
  std::uint64_t last_event = telemetry::EventLog::global().last_seq();

  EXPECT_EQ(lm.sweep(), 2u);
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(lm.active(), 0u);
  EXPECT_EQ(failures.value() - failures_before, 1u);
  std::vector<telemetry::Event> events =
      telemetry::EventLog::global().events_since(last_event);
  auto warning = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.component == "lifetime" && e.level == telemetry::Level::kWarn;
  });
  ASSERT_NE(warning, events.end());
  ASSERT_EQ(warning->attrs.size(), 1u);
  EXPECT_EQ(warning->attrs[0].second, "wal remove failed");
}

TEST(Lifetime, FailingCallbackDoesNotFailTheTriggeringRequest) {
  common::ManualClock clock(0);
  telemetry::MetricsRegistry metrics;
  Container container({.clock = &clock, .metrics = &metrics});
  PingService svc;
  container.deploy("/Ping", svc);
  container.lifetime().schedule(10, [] { throw std::runtime_error("boom"); });
  clock.set(20);
  soap::Envelope r = container.process(make_request("urn:test/Ping"), "/Ping");
  EXPECT_FALSE(r.is_fault());
  EXPECT_EQ(svc.pings, 1);
  EXPECT_EQ(metrics.counter("container.lifetime_failures").value(), 1u);
}

// Callbacks fire in deadline order, ties broken by handle (schedule order).
TEST(Lifetime, SweepFiresInDeadlineOrder) {
  common::ManualClock clock(0);
  LifetimeManager lm(clock);
  std::vector<int> fired;
  lm.schedule(30, [&] { fired.push_back(30); });
  lm.schedule(10, [&] { fired.push_back(10); });
  lm.schedule(20, [&] { fired.push_back(21); });
  lm.schedule(20, [&] { fired.push_back(22); });
  clock.set(30);
  EXPECT_EQ(lm.sweep(), 4u);
  EXPECT_EQ(fired, (std::vector<int>{10, 21, 22, 30}));
}

TEST(Lifetime, MovedTerminationTimeFiresAtTheNewTimeOnly) {
  common::ManualClock clock(0);
  LifetimeManager lm(clock);
  int earlier = 0, later = 0, to_never = 0, from_never = 0;
  auto h_earlier = lm.schedule(100, [&] { ++earlier; });
  auto h_later = lm.schedule(100, [&] { ++later; });
  auto h_to_never = lm.schedule(100, [&] { ++to_never; });
  auto h_from_never = lm.schedule(LifetimeManager::kNever, [&] { ++from_never; });
  EXPECT_TRUE(lm.set_termination_time(h_earlier, 50));
  EXPECT_TRUE(lm.set_termination_time(h_later, 200));
  EXPECT_TRUE(lm.set_termination_time(h_to_never, LifetimeManager::kNever));
  EXPECT_TRUE(lm.set_termination_time(h_from_never, 150));

  clock.set(50);
  EXPECT_EQ(lm.sweep(), 1u);
  EXPECT_EQ(earlier, 1);
  clock.set(100);  // the old deadline: nothing is left indexed there
  EXPECT_EQ(lm.sweep(), 0u);
  clock.set(150);
  EXPECT_EQ(lm.sweep(), 1u);
  EXPECT_EQ(from_never, 1);
  clock.set(199);
  EXPECT_EQ(lm.sweep(), 0u);
  clock.set(200);
  EXPECT_EQ(lm.sweep(), 1u);
  EXPECT_EQ(later, 1);
  clock.set(1'000'000);
  EXPECT_EQ(lm.sweep(), 0u);
  EXPECT_EQ(to_never, 0);
  EXPECT_EQ(lm.active(), 1u);
  EXPECT_EQ(lm.termination_time(h_to_never), LifetimeManager::kNever);
}

TEST(Lifetime, CancelAndDestroyUnindex) {
  common::ManualClock clock(0);
  LifetimeManager lm(clock);
  int fired = 0;
  auto cancelled = lm.schedule(10, [&] { ++fired; });
  auto destroyed = lm.schedule(5, [&] { ++fired; });
  EXPECT_TRUE(lm.cancel(cancelled));
  EXPECT_TRUE(lm.destroy(destroyed));
  EXPECT_EQ(fired, 1);  // destroy ran its callback once
  clock.set(100);
  EXPECT_EQ(lm.sweep(), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(lm.active(), 0u);
}

TEST(Lifetime, EntryScheduledPastDueFiresOnTheNextSweep) {
  common::ManualClock clock(1000);
  LifetimeManager lm(clock);
  int fired = 0;
  lm.schedule(500, [&] { ++fired; });
  EXPECT_EQ(lm.sweep(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Lifetime, NeverEntriesDoNotSlowOrJoinASweep) {
  common::ManualClock clock(0);
  LifetimeManager lm(clock);
  int never_fired = 0, due_fired = 0;
  for (int i = 0; i < 10'000; ++i) {
    lm.schedule(LifetimeManager::kNever, [&] { ++never_fired; });
  }
  lm.schedule(10, [&] { ++due_fired; });
  clock.set(10);
  EXPECT_EQ(lm.sweep(), 1u);
  EXPECT_EQ(due_fired, 1);
  EXPECT_EQ(never_fired, 0);
  EXPECT_EQ(lm.active(), 10'000u);
}

// --- proxy base --------------------------------------------------------------------

TEST(Proxy, InvokeThrowsTypedFault) {
  net::VirtualNetwork net;
  Container container({});
  PingService svc;
  container.deploy("/Ping", svc);
  net.bind("h", container);
  net::VirtualCaller caller(net, {});

  class P : public ProxyBase {
   public:
    using ProxyBase::ProxyBase;
    void fail() { invoke("urn:test/Fail", std::make_unique<xml::Element>(t("In"))); }
    std::string ping() {
      soap::Envelope r =
          invoke("urn:test/Ping", std::make_unique<xml::Element>(t("In")));
      return r.payload()->text();
    }
  };
  P proxy(caller, soap::EndpointReference("http://h/Ping"));
  EXPECT_EQ(proxy.ping(), "pong");
  EXPECT_THROW(proxy.fail(), soap::SoapFault);
}

TEST(Proxy, SignedProxyAgainstX509Container) {
  X509Fixture fx;
  net::VirtualNetwork net;
  Container container({.security = SecurityMode::kX509,
                       .anchor = &fx.ca.root(),
                       .credential = &fx.service_cred});
  PingService svc;
  container.deploy("/Ping", svc);
  net.bind("h", container);
  net::VirtualCaller caller(net, {});

  class P : public ProxyBase {
   public:
    using ProxyBase::ProxyBase;
    std::string ping() {
      soap::Envelope r =
          invoke("urn:test/Ping", std::make_unique<xml::Element>(t("In")));
      return r.payload()->text();
    }
  };
  ProxySecurity sec{&fx.alice, &fx.ca.root(), &common::RealClock::instance()};
  P proxy(caller, soap::EndpointReference("http://h/Ping"), sec);
  EXPECT_EQ(proxy.ping(), "pong");
  EXPECT_EQ(svc.last_identity, "CN=alice");

  // An unsigned proxy is rejected by the same container.
  P unsigned_proxy(caller, soap::EndpointReference("http://h/Ping"));
  EXPECT_THROW(unsigned_proxy.ping(), soap::SoapFault);
}

}  // namespace
}  // namespace gs::container
