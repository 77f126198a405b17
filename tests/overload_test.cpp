// Tests for the overload-control layer: the AdmissionController's depth
// sheds and token buckets, the AdmissionHandler's 503/Receiver-fault
// backpressure at both container entries, the client-side circuit breaker,
// RetryingCaller's Retry-After flooring and fast-fail integration, and the
// shed alert surfaced through the PR-4 monitor.
#include <gtest/gtest.h>

#include "container/admission.hpp"
#include "container/container.hpp"
#include "net/breaker.hpp"
#include "net/retry.hpp"
#include "net/virtual_network.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/timeseries.hpp"

namespace gs {
namespace {

using container::AdmissionConfig;
using container::AdmissionController;
using container::AdmissionHandler;
using container::Priority;

// --- AdmissionController: token buckets ------------------------------------------

TEST(Admission, TokenBucketDrainsAndRefillsOnInjectedClock) {
  common::ManualClock clock(0);
  telemetry::MetricsRegistry reg;
  AdmissionController ctl({
      .clock = &clock,
      .queue_depth = {},
      .per_tenant = {.rate_per_sec = 2.0, .burst = 2.0},
      .tenant_overrides = {},
      .retry_after_ms = 1,
      .metrics = &reg,
  });

  EXPECT_TRUE(ctl.admit(Priority::kNormal, "alice", "/Svc").admitted);
  EXPECT_TRUE(ctl.admit(Priority::kNormal, "alice", "/Svc").admitted);

  auto rejected = ctl.admit(Priority::kNormal, "alice", "/Svc");
  EXPECT_FALSE(rejected.admitted);
  EXPECT_STREQ(rejected.reason, "token-bucket");
  // Retry-After is the actual time to the next token: 1 token / 2 per sec.
  EXPECT_EQ(rejected.retry_after_ms, 500);

  clock.advance(500);  // one token accrues
  EXPECT_TRUE(ctl.admit(Priority::kNormal, "alice", "/Svc").admitted);
  EXPECT_FALSE(ctl.admit(Priority::kNormal, "alice", "/Svc").admitted);

  EXPECT_EQ(reg.counter("container.shed_token_bucket").value(), 2u);
  EXPECT_EQ(reg.counter("container.admitted").value(), 3u);
}

TEST(Admission, TenantOverrideIsolatesTheAggressor) {
  common::ManualClock clock(0);
  telemetry::MetricsRegistry reg;
  AdmissionController ctl({
      .clock = &clock,
      .queue_depth = {},
      // Default shape: unlimited (rate 0 disables the bucket).
      .per_tenant = {},
      .tenant_overrides = {{"bulky", {.rate_per_sec = 1.0, .burst = 1.0}}},
      .metrics = &reg,
  });

  EXPECT_TRUE(ctl.admit(Priority::kNormal, "bulky", "/Svc").admitted);
  EXPECT_FALSE(ctl.admit(Priority::kNormal, "bulky", "/Svc").admitted);
  // Other tenants are untouched by the aggressor's exhausted bucket.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ctl.admit(Priority::kNormal, "alice", "/Svc").admitted);
  }
}

TEST(Admission, BucketsAreKeyedPerService) {
  common::ManualClock clock(0);
  telemetry::MetricsRegistry reg;
  AdmissionController ctl({
      .clock = &clock,
      .queue_depth = {},
      .per_tenant = {.rate_per_sec = 1.0, .burst = 1.0},
      .tenant_overrides = {},
      .metrics = &reg,
  });
  EXPECT_TRUE(ctl.admit(Priority::kNormal, "alice", "/A").admitted);
  EXPECT_FALSE(ctl.admit(Priority::kNormal, "alice", "/A").admitted);
  // A different service has its own bucket under the same tenant.
  EXPECT_TRUE(ctl.admit(Priority::kNormal, "alice", "/B").admitted);
}

TEST(Admission, MonitoringIsExemptFromBuckets) {
  common::ManualClock clock(0);
  telemetry::MetricsRegistry reg;
  AdmissionController ctl({
      .clock = &clock,
      .queue_depth = {},
      .per_tenant = {.rate_per_sec = 1.0, .burst = 1.0},
      .tenant_overrides = {},
      .metrics = &reg,
  });
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(ctl.admit(Priority::kMonitoring, "alice", "/Telemetry").admitted);
  }
}

// --- AdmissionController: depth sheds ---------------------------------------------

TEST(Admission, DepthShedsBulkFirstMonitoringLast) {
  std::size_t depth = 0;
  telemetry::MetricsRegistry reg;
  AdmissionController ctl({
      .queue_depth = [&depth] { return depth; },
      .per_tenant = {},
      .tenant_overrides = {},
      .metrics = &reg,
  });

  depth = 64;  // bulk watermark
  EXPECT_FALSE(ctl.admit(Priority::kBulk, "t", "/Svc").admitted);
  EXPECT_TRUE(ctl.admit(Priority::kNormal, "t", "/Svc").admitted);
  EXPECT_TRUE(ctl.admit(Priority::kMonitoring, "t", "/Telemetry").admitted);

  depth = 128;  // normal watermark
  EXPECT_FALSE(ctl.admit(Priority::kBulk, "t", "/Svc").admitted);
  EXPECT_FALSE(ctl.admit(Priority::kNormal, "t", "/Svc").admitted);
  EXPECT_TRUE(ctl.admit(Priority::kMonitoring, "t", "/Telemetry").admitted);

  depth = 512;  // hard cap: even monitoring sheds
  EXPECT_FALSE(ctl.admit(Priority::kMonitoring, "t", "/Telemetry").admitted);

  EXPECT_EQ(reg.counter("container.shed_bulk").value(), 2u);
  EXPECT_EQ(reg.counter("container.shed_normal").value(), 1u);
  EXPECT_EQ(reg.counter("container.shed_monitoring").value(), 1u);
  EXPECT_EQ(reg.counter("container.shed_queue_depth").value(), 4u);
  EXPECT_EQ(reg.counter("container.shed_total").value(), 4u);
}

TEST(Admission, InflightCountsTowardDepth) {
  telemetry::MetricsRegistry reg;
  AdmissionController ctl({.queue_depth = {},
                          .per_tenant = {},
                          .tenant_overrides = {},
                          .metrics = &reg});
  for (int i = 0; i < 64; ++i) ctl.on_start();
  EXPECT_EQ(ctl.depth(), 64u);
  EXPECT_FALSE(ctl.admit(Priority::kBulk, "t", "/Svc").admitted);
  ctl.on_finish();
  EXPECT_TRUE(ctl.admit(Priority::kBulk, "t", "/Svc").admitted);
  for (int i = 0; i < 63; ++i) ctl.on_finish();
  EXPECT_EQ(ctl.depth(), 0u);
}

TEST(Admission, SheddingEventsAreEdgeTriggeredWithHysteresis) {
  std::size_t depth = 0;
  telemetry::MetricsRegistry reg;
  AdmissionController ctl({
      .queue_depth = [&depth] { return depth; },
      .per_tenant = {},
      .tenant_overrides = {},
      .metrics = &reg,
  });
  telemetry::EventLog& log = telemetry::EventLog::global();

  std::uint64_t warns = log.count(telemetry::Level::kWarn);
  depth = 100;
  for (int i = 0; i < 5; ++i) ctl.admit(Priority::kBulk, "t", "/Svc");
  // One "shedding engaged" for the whole episode, not one per rejection.
  EXPECT_EQ(log.count(telemetry::Level::kWarn), warns + 1);

  // Backlog drops, but not below half the bulk watermark: still the same
  // episode — no release, no new engage.
  std::uint64_t infos = log.count(telemetry::Level::kInfo);
  depth = 40;
  EXPECT_TRUE(ctl.admit(Priority::kBulk, "t", "/Svc").admitted);
  EXPECT_EQ(log.count(telemetry::Level::kInfo), infos);

  // Below the hysteresis point: one "shedding released".
  depth = 10;
  EXPECT_TRUE(ctl.admit(Priority::kBulk, "t", "/Svc").admitted);
  EXPECT_EQ(log.count(telemetry::Level::kInfo), infos + 1);

  // The next episode gets its own engage event.
  depth = 100;
  ctl.admit(Priority::kBulk, "t", "/Svc");
  EXPECT_EQ(log.count(telemetry::Level::kWarn), warns + 2);
}

// --- AdmissionHandler: classification and backpressure ----------------------------

TEST(Admission, ClassifiesOnTransportFactsOnly) {
  net::HttpRequest http;
  EXPECT_EQ(AdmissionHandler::classify_request("/Counter", &http),
            Priority::kNormal);
  EXPECT_EQ(AdmissionHandler::classify_request("/x/Telemetry", &http),
            Priority::kMonitoring);
  http.headers["X-GS-Priority"] = "bulk";
  EXPECT_EQ(AdmissionHandler::classify_request("/Counter", &http),
            Priority::kBulk);
  http.headers["X-GS-Priority"] = "monitoring";
  EXPECT_EQ(AdmissionHandler::classify_request("/Counter", &http),
            Priority::kMonitoring);
  // The header wins over the path heuristic; unknown values mean normal.
  http.headers["X-GS-Priority"] = "whatever";
  EXPECT_EQ(AdmissionHandler::classify_request("/x/Telemetry", &http),
            Priority::kNormal);
  // In-process entry has no HTTP request: path only.
  EXPECT_EQ(AdmissionHandler::classify_request("/x/Telemetry", nullptr),
            Priority::kMonitoring);
}

class EchoService : public container::Service {
 public:
  EchoService() : container::Service("Echo") {
    register_operation("urn:t/Ping", [](container::RequestContext& ctx) {
      soap::Envelope r = make_response(ctx, "urn:t/PingResponse");
      r.add_payload(xml::QName("urn:t", "Pong"));
      return r;
    });
  }
};

soap::Envelope ping_request() {
  soap::Envelope env;
  soap::MessageInfo info;
  info.action = "urn:t/Ping";
  info.message_id = "urn:uuid:overload-1";
  env.write_addressing(info);
  env.add_payload(xml::QName("urn:t", "Ping"));
  return env;
}

struct ShedFixture {
  std::size_t depth = 0;
  telemetry::MetricsRegistry reg;
  net::VirtualNetwork net;
  container::Container container{{}};
  EchoService svc;
  std::shared_ptr<AdmissionController> controller;

  ShedFixture() {
    controller = std::make_shared<AdmissionController>(AdmissionConfig{
        .queue_depth = [this] { return depth; },
        .per_tenant = {},
        .tenant_overrides = {},
        .metrics = &reg,
    });
    container.chain().insert_before(
        "parse", std::make_shared<AdmissionHandler>(controller));
    container.deploy("/Echo", svc);
    net.bind("host", container);
  }
};

TEST(Admission, HttpShedIs503WithRetryAfter) {
  ShedFixture fx;
  net::HttpRequest http;
  http.path = "/Echo";
  http.body = ping_request().to_xml();

  EXPECT_EQ(fx.container.handle(http).status, 200);

  fx.depth = 200;  // past the normal watermark
  net::HttpResponse resp = fx.container.handle(http);
  EXPECT_EQ(resp.status, 503);
  EXPECT_EQ(resp.headers["Retry-After"], "1");
  EXPECT_EQ(resp.headers["X-GS-Shed-Reason"], "queue-depth");
  EXPECT_TRUE(resp.body_str().empty());  // reject path serializes nothing
}

TEST(Admission, ClientSeesOverloadErrorWithServerHint) {
  ShedFixture fx;
  fx.depth = 200;
  net::VirtualCaller caller(fx.net, {});
  try {
    caller.call("http://host/Echo", ping_request());
    FAIL() << "expected OverloadError";
  } catch (const net::OverloadError& err) {
    EXPECT_EQ(err.retry_after_ms(), 1000);  // "Retry-After: 1" x 1000
  }
}

TEST(Admission, InProcessShedIsReceiverFault) {
  ShedFixture fx;
  fx.depth = 200;
  soap::Envelope response = fx.container.process(ping_request(), "/Echo");
  ASSERT_TRUE(response.is_fault());
  soap::Fault fault = response.fault();
  EXPECT_EQ(fault.code, "Receiver");
  EXPECT_NE(fault.reason.find("server busy"), std::string::npos);
}

TEST(Admission, AdmittedRequestsBracketInflight) {
  ShedFixture fx;
  net::HttpRequest http;
  http.path = "/Echo";
  http.body = ping_request().to_xml();
  EXPECT_EQ(fx.container.handle(http).status, 200);
  // The gauge returned to zero after the request drained.
  EXPECT_EQ(fx.reg.gauge("container.inflight").value(), 0);
  EXPECT_EQ(fx.reg.counter("container.admitted").value(), 1u);
}

// --- circuit breaker --------------------------------------------------------------

TEST(Breaker, OpensAfterConsecutiveFailuresAndProbesHalfOpen) {
  common::ManualClock clock(0);
  net::CircuitBreaker breaker({.failure_threshold = 3, .open_ms = 1000}, &clock);
  const std::string authority = "host:80";

  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(breaker.allow(authority));
    breaker.record_failure(authority);
  }
  EXPECT_EQ(breaker.state(authority), net::CircuitBreaker::State::kClosed);
  breaker.record_failure(authority);  // third consecutive: trip
  EXPECT_EQ(breaker.state(authority), net::CircuitBreaker::State::kOpen);

  EXPECT_FALSE(breaker.allow(authority));  // fast fail, no I/O
  EXPECT_EQ(breaker.retry_in(authority), 1000);
  clock.advance(400);
  EXPECT_EQ(breaker.retry_in(authority), 600);

  clock.advance(600);  // cooldown over: first call becomes the probe
  EXPECT_TRUE(breaker.allow(authority));
  EXPECT_EQ(breaker.state(authority), net::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow(authority));  // probe budget (1) is in flight

  breaker.record_success(authority);
  EXPECT_EQ(breaker.state(authority), net::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(authority));
}

TEST(Breaker, HalfOpenFailureReopensForAnotherCooldown) {
  common::ManualClock clock(0);
  net::CircuitBreaker breaker({.failure_threshold = 1, .open_ms = 500}, &clock);
  breaker.record_failure("a");
  EXPECT_EQ(breaker.state("a"), net::CircuitBreaker::State::kOpen);
  clock.advance(500);
  EXPECT_TRUE(breaker.allow("a"));  // probe
  breaker.record_failure("a");      // probe failed
  EXPECT_EQ(breaker.state("a"), net::CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow("a"));
  EXPECT_EQ(breaker.retry_in("a"), 500);
}

TEST(Breaker, SuccessResetsTheConsecutiveCount) {
  common::ManualClock clock(0);
  net::CircuitBreaker breaker({.failure_threshold = 3}, &clock);
  breaker.record_failure("a");
  breaker.record_failure("a");
  breaker.record_success("a");
  breaker.record_failure("a");
  breaker.record_failure("a");
  EXPECT_EQ(breaker.state("a"), net::CircuitBreaker::State::kClosed);
}

TEST(Breaker, RoutesAreIndependent) {
  common::ManualClock clock(0);
  net::CircuitBreaker breaker({.failure_threshold = 1}, &clock);
  breaker.record_failure("a");
  EXPECT_FALSE(breaker.allow("a"));
  EXPECT_TRUE(breaker.allow("b"));
}

// --- RetryingCaller + breaker -----------------------------------------------------

class AlwaysOverloadedCaller final : public net::SoapCaller {
 public:
  int calls = 0;
  common::TimeMs retry_after_ms = 0;
  soap::Envelope call(const std::string&, const soap::Envelope&) override {
    ++calls;
    throw net::OverloadError("HTTP 503", retry_after_ms);
  }
};

TEST(RetryBreaker, RetryAfterHintFloorsTheBackoff) {
  AlwaysOverloadedCaller inner;
  inner.retry_after_ms = 5000;
  common::ManualClock clock(0);
  std::vector<common::TimeMs> slept;
  net::RetryingCaller caller(
      inner,
      {.max_attempts = 3, .base_delay_ms = 10, .multiplier = 2.0, .jitter = 0.0},
      net::BreakerPolicy::disabled(), &clock,
      [&](common::TimeMs ms) { slept.push_back(ms); });
  EXPECT_THROW(caller.call("http://host/Svc", ping_request()),
               net::OverloadError);
  EXPECT_EQ(inner.calls, 3);
  // Policy would sleep 10 then 20; the server asked for 5000.
  EXPECT_EQ(slept, (std::vector<common::TimeMs>{5000, 5000}));
}

TEST(RetryBreaker, BreakerStopsAnInflightRetryLoop) {
  AlwaysOverloadedCaller inner;
  common::ManualClock clock(0);
  std::vector<common::TimeMs> slept;
  net::RetryingCaller caller(
      inner, {.max_attempts = 5, .base_delay_ms = 1, .jitter = 0.0},
      {.failure_threshold = 2, .open_ms = 1000}, &clock,
      [&](common::TimeMs ms) { slept.push_back(ms); });
  // Attempt 1 and 2 fail and trip the breaker; attempt 3 fast-fails
  // without touching the transport, despite the retry budget of 5.
  EXPECT_THROW(caller.call("http://host/Svc", ping_request()),
               net::CircuitOpenError);
  EXPECT_EQ(inner.calls, 2);

  // Subsequent calls fast-fail outright while the cooldown runs.
  EXPECT_THROW(caller.call("http://host/Svc", ping_request()),
               net::CircuitOpenError);
  EXPECT_EQ(inner.calls, 2);
  ASSERT_NE(caller.breaker(), nullptr);
  EXPECT_EQ(caller.breaker()->state("host"),
            net::CircuitBreaker::State::kOpen);
}

TEST(RetryBreaker, RecoversThroughHalfOpenProbe) {
  // Fails twice (tripping the 2-failure breaker), then succeeds.
  class FlakyCaller final : public net::SoapCaller {
   public:
    int calls = 0;
    soap::Envelope call(const std::string&, const soap::Envelope&) override {
      if (++calls <= 2) throw net::OverloadError("HTTP 503", 0);
      soap::Envelope r;
      r.add_payload(xml::QName("urn:t", "Ok"));
      return r;
    }
  } inner;
  common::ManualClock clock(0);
  net::RetryingCaller caller(
      inner, {.max_attempts = 1}, {.failure_threshold = 2, .open_ms = 1000},
      &clock, [&](common::TimeMs) {});
  EXPECT_THROW(caller.call("http://host/Svc", ping_request()),
               net::OverloadError);
  EXPECT_THROW(caller.call("http://host/Svc", ping_request()),
               net::OverloadError);
  EXPECT_THROW(caller.call("http://host/Svc", ping_request()),
               net::CircuitOpenError);
  clock.advance(1000);  // cooldown over: the next call is the probe
  EXPECT_FALSE(caller.call("http://host/Svc", ping_request()).is_fault());
  EXPECT_EQ(caller.breaker()->state("host"),
            net::CircuitBreaker::State::kClosed);
  EXPECT_EQ(inner.calls, 3);
}

TEST(RetryBreaker, FaultsDoNotTripTheBreaker) {
  class FaultingCaller final : public net::SoapCaller {
   public:
    int calls = 0;
    soap::Envelope call(const std::string&, const soap::Envelope&) override {
      ++calls;
      return soap::Envelope::make_fault(
          {.code = "Sender",
           .reason = "application error",
           .detail = "",
           .subcode = ""});
    }
  } inner;
  common::ManualClock clock(0);
  net::RetryingCaller caller(inner, {.max_attempts = 3},
                             {.failure_threshold = 1, .open_ms = 1000}, &clock,
                             [&](common::TimeMs) {});
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(caller.call("http://host/Svc", ping_request()).is_fault());
  }
  EXPECT_EQ(inner.calls, 5);  // never fast-failed: faults are successes here
  EXPECT_EQ(caller.breaker()->state("host"),
            net::CircuitBreaker::State::kClosed);
}

// --- shedding surfaced through the PR-4 monitor -----------------------------------

TEST(Admission, ShedRateFiresMonitorAlert) {
  common::ManualClock clock(1000);
  telemetry::MetricsRegistry reg;
  AdmissionController ctl({
      .queue_depth = [] { return std::size_t{100}; },
      .per_tenant = {},
      .tenant_overrides = {},
      .metrics = &reg,
  });
  telemetry::TimeSeriesStore series({.registry = &reg, .clock = &clock});
  telemetry::SloTracker slo(&series, &clock);
  slo.add_objective({.name = "shedding",
                     .kind = telemetry::SloObjective::Kind::kThreshold,
                     .good_metric = {},
                     .bad_metrics = {},
                     .series = "container.shed_total",
                     .threshold = 5.0,
                     .short_window_ms = 0,
                     .long_window_ms = 0});
  telemetry::MonitorProducer producer(telemetry::MonitorProducer::Config{
      .registry = &reg,
      .producer_address = "http://p/Mon",
      .wsn = nullptr,
      .wse = nullptr,
      .clock = &clock,
      .interval_ms = 1000,
      .series = &series,
      .slo = &slo,
  });

  telemetry::EventLog& log = telemetry::EventLog::global();
  producer.tick();  // baseline: quiet
  std::uint64_t warns = log.count(telemetry::Level::kWarn);

  for (int i = 0; i < 10; ++i) ctl.admit(Priority::kBulk, "t", "/Svc");
  clock.advance(1000);
  producer.tick();
  // The "shedding engaged" episode event plus the monitor's alert.
  EXPECT_EQ(log.count(telemetry::Level::kWarn), warns + 2);

  // A next tick with no NEW sheds recovers the objective, which is logged
  // at Info: no further warn.
  clock.advance(1000);
  producer.tick();
  EXPECT_EQ(log.count(telemetry::Level::kWarn), warns + 2);
  EXPECT_EQ(producer.alerts_fired(), 2u);
}

}  // namespace
}  // namespace gs
