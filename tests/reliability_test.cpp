// Tests for the delivery-reliability layer: deterministic fault injection on
// the virtual network, the retrying caller, the per-destination delivery
// queue, and the wsn/wse notification paths wired through all three.
#include <gtest/gtest.h>

#include "common/threadpool.hpp"
#include "container/container.hpp"
#include "net/delivery_queue.hpp"
#include "net/retry.hpp"
#include "net/virtual_network.hpp"
#include "telemetry/metrics.hpp"
#include "wse/service.hpp"
#include "wsn/client.hpp"
#include "wsn/consumer.hpp"
#include "wsn/producer.hpp"

namespace gs::net {
namespace {

soap::Envelope make_message(const std::string& text) {
  soap::Envelope env;
  env.add_payload(xml::QName("urn:t", "Msg")).set_text(text);
  return env;
}

// Fails the first `fail_first` calls with NetworkError, then succeeds.
class ScriptedCaller final : public SoapCaller {
 public:
  int calls = 0;
  int fail_first = 0;
  std::vector<std::string> texts;  // payload text of each delivered message

  soap::Envelope call(const std::string& address,
                      const soap::Envelope& request) override {
    (void)address;
    ++calls;
    if (calls <= fail_first) throw NetworkError("scripted transport failure");
    texts.push_back(request.payload() ? request.payload()->text() : "");
    soap::Envelope response;
    response.add_payload(xml::QName("urn:t", "Ok"));
    return response;
  }
};

class AlwaysFaultingCaller final : public SoapCaller {
 public:
  int calls = 0;
  soap::Envelope call(const std::string&, const soap::Envelope&) override {
    ++calls;
    return soap::Envelope::make_fault(
        {.code = "Sender",
         .reason = "scripted application fault",
         .detail = "",
         .subcode = ""});
  }
};

class EchoEndpoint final : public Endpoint {
 public:
  HttpResponse handle(const HttpRequest& request) override {
    ++hits;
    soap::Envelope env = soap::Envelope::from_xml(request.body);
    soap::Envelope response;
    response.add_payload(xml::QName("urn:t", "Echo"))
        .set_text(env.payload() ? env.payload()->text() : "");
    return HttpResponse::ok(response.to_xml());
  }
  int hits = 0;
};

std::uint64_t counter_value(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name).value();
}

// --- RetryPolicy ----------------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy{.base_delay_ms = 10,
                     .multiplier = 2.0,
                     .max_delay_ms = 35,
                     .jitter = 0.0};
  std::mt19937_64 rng(1);
  EXPECT_EQ(policy.delay_after(1, rng), 10);
  EXPECT_EQ(policy.delay_after(2, rng), 20);
  EXPECT_EQ(policy.delay_after(3, rng), 35);  // 40 capped to 35
  EXPECT_EQ(policy.delay_after(9, rng), 35);
}

TEST(RetryPolicy, JitterIsSeededAndBounded) {
  RetryPolicy policy{.base_delay_ms = 100, .multiplier = 1.0, .jitter = 0.2};
  std::mt19937_64 a(7), b(7), c(8);
  std::vector<common::TimeMs> from_a, from_b, from_c;
  for (int i = 1; i <= 16; ++i) {
    from_a.push_back(policy.delay_after(i, a));
    from_b.push_back(policy.delay_after(i, b));
    from_c.push_back(policy.delay_after(i, c));
    EXPECT_GE(from_a.back(), 80);
    EXPECT_LE(from_a.back(), 120);
  }
  EXPECT_EQ(from_a, from_b);  // same seed, same schedule
  EXPECT_NE(from_a, from_c);
}

// --- RetryingCaller --------------------------------------------------------------

TEST(RetryingCaller, RecoversAfterTransportFailures) {
  ScriptedCaller inner;
  inner.fail_first = 2;
  common::ManualClock clock(0);
  std::vector<common::TimeMs> slept;
  std::uint64_t recovered_before = counter_value("net.retry.recovered");
  RetryingCaller caller(
      inner,
      {.max_attempts = 5, .base_delay_ms = 10, .multiplier = 2.0, .jitter = 0.0},
      &clock, [&](common::TimeMs ms) { slept.push_back(ms); });
  soap::Envelope response = caller.call("http://x/", make_message("m"));
  EXPECT_FALSE(response.is_fault());
  EXPECT_EQ(inner.calls, 3);
  EXPECT_EQ(slept, (std::vector<common::TimeMs>{10, 20}));
  EXPECT_EQ(counter_value("net.retry.recovered"), recovered_before + 1);
}

TEST(RetryingCaller, GivesUpAfterMaxAttempts) {
  ScriptedCaller inner;
  inner.fail_first = 1000;
  common::ManualClock clock(0);
  std::uint64_t exhausted_before = counter_value("net.retry.exhausted");
  RetryingCaller caller(inner, {.max_attempts = 4, .jitter = 0.0}, &clock,
                        [](common::TimeMs) {});
  EXPECT_THROW(caller.call("http://x/", make_message("m")), NetworkError);
  EXPECT_EQ(inner.calls, 4);
  EXPECT_EQ(counter_value("net.retry.exhausted"), exhausted_before + 1);
}

TEST(RetryingCaller, DoesNotRetrySoapFaults) {
  // Application faults come back as envelopes: retrying them would re-run
  // a request the service already rejected.
  AlwaysFaultingCaller inner;
  common::ManualClock clock(0);
  RetryingCaller caller(inner, {.max_attempts = 5}, &clock,
                        [](common::TimeMs) {});
  soap::Envelope response = caller.call("http://x/", make_message("m"));
  EXPECT_TRUE(response.is_fault());
  EXPECT_EQ(inner.calls, 1);
}

TEST(RetryingCaller, TimeBudgetStopsRetrying) {
  ScriptedCaller inner;
  inner.fail_first = 1000;
  common::ManualClock clock(0);
  // Sleeper advances the clock, so the budget check sees simulated time.
  RetryingCaller caller(inner,
                        {.max_attempts = 100,
                         .base_delay_ms = 40,
                         .multiplier = 1.0,
                         .jitter = 0.0,
                         .call_timeout_ms = 100},
                        &clock, [&](common::TimeMs ms) { clock.advance(ms); });
  EXPECT_THROW(caller.call("http://x/", make_message("m")), NetworkError);
  // Attempts at t=0, 40, 80; the next delay would cross the 100 ms budget.
  EXPECT_EQ(inner.calls, 3);
}

TEST(RetryingCaller, NonePolicyIsFireAndForget) {
  ScriptedCaller inner;
  inner.fail_first = 1;
  common::ManualClock clock(0);
  RetryingCaller caller(inner, RetryPolicy::none(), &clock,
                        [](common::TimeMs) {});
  EXPECT_THROW(caller.call("http://x/", make_message("m")), NetworkError);
  EXPECT_EQ(inner.calls, 1);
}

// --- fault injection on the virtual network --------------------------------------

TEST(VirtualNetworkFaults, PartitionFailsEveryExchange) {
  VirtualNetwork net;
  EchoEndpoint echo;
  net.bind("x", echo);
  net.set_fault_policy("x", {.partitioned = true});
  VirtualCaller caller(net, {});
  EXPECT_THROW(caller.call("http://x/e", make_message("m")), NetworkError);
  EXPECT_THROW(caller.call("http://x/e", make_message("m")), NetworkError);
  EXPECT_EQ(echo.hits, 0);  // faults fire before the endpoint is reached
  net.clear_fault_policy("x");
  EXPECT_NO_THROW(caller.call("http://x/e", make_message("m")));
  EXPECT_EQ(echo.hits, 1);
}

TEST(VirtualNetworkFaults, SeededDropPatternIsReproducible) {
  auto run = [] {
    VirtualNetwork net;
    EchoEndpoint echo;
    net.bind("x", echo);
    net.set_fault_policy("x", {.drop_probability = 0.5, .seed = 99});
    VirtualCaller caller(net, {});
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      try {
        caller.call("http://x/e", make_message("m"));
        pattern += 'o';
      } catch (const NetworkError&) {
        pattern += 'x';
      }
    }
    return pattern;
  };
  std::string first = run();
  EXPECT_EQ(first, run());  // same seed, same drop schedule
  EXPECT_NE(first.find('x'), std::string::npos);
  EXPECT_NE(first.find('o'), std::string::npos);
}

TEST(VirtualNetworkFaults, ReinstallingPolicyReseedsTheRoute) {
  VirtualNetwork net;
  EchoEndpoint echo;
  net.bind("x", echo);
  VirtualCaller caller(net, {});
  auto pattern_of = [&](std::uint64_t seed) {
    net.set_fault_policy("x", {.drop_probability = 0.5, .seed = seed});
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      try {
        caller.call("http://x/e", make_message("m"));
        pattern += 'o';
      } catch (const NetworkError&) {
        pattern += 'x';
      }
    }
    return pattern;
  };
  std::string a = pattern_of(5);
  std::string b = pattern_of(5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, pattern_of(6));
}

TEST(VirtualNetworkFaults, AddedLatencyChargesTheMeter) {
  VirtualNetwork net;
  EchoEndpoint echo;
  net.bind("x", echo);
  net.set_fault_policy("x", {.added_latency_ms = 7.5});
  WireMeter meter;
  VirtualCaller caller(net, {.meter = &meter});
  double base;
  {
    WireMeter unfaulted;
    VirtualCaller plain(net, {.meter = &unfaulted});
    net.clear_fault_policy("x");
    plain.call("http://x/e", make_message("m"));
    net.set_fault_policy("x", {.added_latency_ms = 7.5});
    base = unfaulted.simulated_ms();
  }
  caller.call("http://x/e", make_message("m"));
  EXPECT_NEAR(meter.simulated_ms(), base + 7.5, 1e-6);
}

TEST(VirtualNetworkFaults, InjectedDropCountsTelemetry) {
  VirtualNetwork net;
  EchoEndpoint echo;
  net.bind("x", echo);
  net.set_fault_policy("x", {.partitioned = true});
  VirtualCaller caller(net, {});
  std::uint64_t before = counter_value("net.faults.injected");
  EXPECT_THROW(caller.call("http://x/e", make_message("m")), NetworkError);
  EXPECT_EQ(counter_value("net.faults.injected"), before + 1);
}

// --- DeliveryQueue ---------------------------------------------------------------

TEST(DeliveryQueue, InlineModeDeliversOnTheSubmittingThread) {
  ScriptedCaller sink;
  DeliveryQueue queue({.caller = &sink});
  EXPECT_EQ(queue.submit("http://c/s", make_message("a")),
            DeliveryQueue::Submit::kDelivered);
  EXPECT_EQ(queue.submit("http://c/s", make_message("b")),
            DeliveryQueue::Submit::kDelivered);
  EXPECT_EQ(sink.texts, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(queue.dead_lettered(), 0u);
}

TEST(DeliveryQueue, InlineModeEvictsAfterConsecutiveFailures) {
  ScriptedCaller sink;
  sink.fail_first = 3;
  DeliveryQueue queue(
      {.caller = &sink, .evict_after_consecutive_failures = 3});
  std::string dest = "http://dark/s";
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(queue.submit(dest, make_message("m")),
              DeliveryQueue::Submit::kRejected);
  }
  EXPECT_TRUE(queue.evicted(dest));
  // Evicted destinations are shed without touching the transport.
  EXPECT_EQ(queue.submit(dest, make_message("m")),
            DeliveryQueue::Submit::kRejected);
  EXPECT_EQ(sink.calls, 3);
  EXPECT_EQ(queue.dead_lettered(), 4u);  // 3 failed + 1 rejected
  // Reinstating (the re-subscribe path) resumes delivery.
  queue.reinstate(dest);
  EXPECT_EQ(queue.submit(dest, make_message("back")),
            DeliveryQueue::Submit::kDelivered);
  EXPECT_EQ(sink.texts, (std::vector<std::string>{"back"}));
}

TEST(DeliveryQueue, SuccessResetsTheFailureStreak) {
  ScriptedCaller sink;
  sink.fail_first = 2;
  DeliveryQueue queue(
      {.caller = &sink, .evict_after_consecutive_failures = 3});
  std::string dest = "http://flaky/s";
  queue.submit(dest, make_message("1"));  // fail (streak 1)
  queue.submit(dest, make_message("2"));  // fail (streak 2)
  queue.submit(dest, make_message("3"));  // success -> streak resets
  queue.submit(dest, make_message("4"));  // success
  EXPECT_FALSE(queue.evicted(dest));
}

// Only a destination with a failure streak or an eviction keeps a route,
// so the table is bounded by the failing sinks, not by every sink ever
// notified.
TEST(DeliveryQueue, RouteTableHoldsOnlyFailingDestinations) {
  class DarkSinkCaller final : public SoapCaller {
   public:
    soap::Envelope call(const std::string& address,
                        const soap::Envelope&) override {
      if (address == "http://dark/s") throw NetworkError("dark sink");
      return soap::Envelope();
    }
  } sink;
  DeliveryQueue queue(
      {.caller = &sink, .evict_after_consecutive_failures = 2});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(queue.submit("http://sink" + std::to_string(i) + "/s",
                           make_message("m")),
              DeliveryQueue::Submit::kDelivered);
  }
  EXPECT_EQ(queue.routes(), 0u);

  for (int i = 0; i < 3; ++i) queue.submit("http://dark/s", make_message("m"));
  EXPECT_TRUE(queue.evicted("http://dark/s"));
  EXPECT_EQ(queue.routes(), 1u);

  queue.reinstate("http://dark/s");
  EXPECT_FALSE(queue.evicted("http://dark/s"));
  EXPECT_EQ(queue.routes(), 0u);
}

TEST(DeliveryQueue, RequiresACaller) {
  EXPECT_THROW(DeliveryQueue queue({}), std::invalid_argument);
}

// --- ThreadPool hardening --------------------------------------------------------

TEST(ThreadPool, TaskExceptionsAreCountedNotFatal) {
  common::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task bug"); });
  pool.submit([] {});
  pool.drain();
  EXPECT_EQ(pool.tasks_failed(), 1u);
  EXPECT_EQ(pool.tasks_submitted(), 2u);
}

}  // namespace
}  // namespace gs::net

// --- end-to-end: wsn under injected faults ---------------------------------------

namespace gs::wsn {
namespace {

xml::QName app(const char* local) { return {"urn:app", local}; }

struct ReliabilityFixture {
  common::ManualClock clock{1000};
  net::VirtualNetwork net;
  xmldb::XmlDatabase db{std::make_unique<xmldb::MemoryBackend>(), {}};
  container::Container container{{.clock = &clock}};
  wsrf::ResourceHome sub_home{db, "subs", &container.lifetime()};
  std::unique_ptr<SubscriptionManagerService> manager;
  std::unique_ptr<container::Service> source_service;
  std::unique_ptr<net::VirtualCaller> caller;     // client -> producer
  std::unique_ptr<net::VirtualCaller> raw_sink;   // producer -> consumers
  std::unique_ptr<net::SoapCaller> sink;          // possibly retry-wrapped
  std::unique_ptr<NotificationProducer> producer;
  NotificationConsumer consumer;       // the live subscriber at http://c
  NotificationConsumer dark_consumer;  // the partitioned one at http://dark

  explicit ReliabilityFixture(net::RetryPolicy retry, int evict_after = 0) {
    manager = std::make_unique<SubscriptionManagerService>(
        sub_home, "http://p/Subscriptions");
    source_service = std::make_unique<container::Service>("Source");
    caller =
        std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
    raw_sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.keep_alive = false});
    // Retries advance nothing and sleep nowhere: the schedule is simulated,
    // so the test is deterministic and instant.
    sink = std::make_unique<net::RetryingCaller>(*raw_sink, retry, &clock,
                                                 [](common::TimeMs) {});
    TopicNamespace topics;
    topics.add("job/done");
    producer = std::make_unique<NotificationProducer>(
        NotificationProducer::Config{.sink_caller = sink.get(),
                                     .producer_address = "http://p/Source",
                                     .manager = manager.get(),
                                     .clock = &clock,
                                     .evict_after_failures = evict_after},
        std::move(topics));
    producer->register_into(*source_service);
    container.deploy("/Source", *source_service);
    container.deploy("/Subscriptions", *manager);
    net.bind("p", container);
    net.bind("c", consumer);
    net.bind("dark", dark_consumer);
  }

  void subscribe(const char* address) {
    Filter f;
    f.set_topic(TopicExpression::parse(TopicExpression::Dialect::kConcrete,
                                       "job/done"));
    NotificationProducerProxy proxy(*caller,
                                    soap::EndpointReference("http://p/Source"));
    proxy.subscribe(soap::EndpointReference(address), f);
  }

  std::unique_ptr<xml::Element> event() {
    auto e = std::make_unique<xml::Element>(app("Event"));
    e->append_element(app("code")).set_text("1");
    return e;
  }
};

std::uint64_t counter_value(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name).value();
}

// The acceptance scenario: a route dropping 30% of exchanges, a retrying
// sink caller — every notification still lands, deterministically.
TEST(Reliability, RetriesDeliverThroughThirtyPercentDrop) {
  ReliabilityFixture fx(
      {.max_attempts = 8, .base_delay_ms = 1, .jitter = 0.0, .seed = 11});
  fx.subscribe("http://c/sink");
  fx.net.set_fault_policy("c", {.drop_probability = 0.3, .seed = 1234});

  std::uint64_t recovered_before = counter_value("net.retry.recovered");
  auto ev = fx.event();
  size_t delivered = 0;
  for (int i = 0; i < 20; ++i) delivered += fx.producer->notify("job/done", *ev);
  EXPECT_EQ(delivered, 20u);
  EXPECT_TRUE(fx.consumer.wait_for(20, 1000));
  // With p=0.3 over 20 sequences the seeded schedule must include drops
  // that the retries recovered.
  EXPECT_GT(counter_value("net.retry.recovered"), recovered_before);
}

TEST(Reliability, DropRecoveryIsDeterministicAcrossRuns) {
  auto attempts_used = [] {
    std::uint64_t before = counter_value("net.retry.attempts");
    ReliabilityFixture fx(
        {.max_attempts = 8, .base_delay_ms = 1, .jitter = 0.0, .seed = 11});
    fx.subscribe("http://c/sink");
    fx.net.set_fault_policy("c", {.drop_probability = 0.3, .seed = 1234});
    auto ev = fx.event();
    for (int i = 0; i < 20; ++i) fx.producer->notify("job/done", *ev);
    return counter_value("net.retry.attempts") - before;
  };
  std::uint64_t first = attempts_used();
  EXPECT_EQ(first, attempts_used());
  EXPECT_GT(first, 0u);
}

// The other acceptance scenario: a hard-partitioned subscriber is evicted
// after N consecutive failed call sequences, with the counter incremented,
// and stops costing retries; the live subscriber is unaffected.
TEST(Reliability, HardPartitionEvictsSubscriberAfterConsecutiveFailures) {
  ReliabilityFixture fx({.max_attempts = 2, .base_delay_ms = 1, .jitter = 0.0},
                        /*evict_after=*/3);
  fx.subscribe("http://c/sink");
  fx.subscribe("http://dark/sink");
  fx.net.set_fault_policy("dark", {.partitioned = true});

  std::uint64_t evicted_before = counter_value("wsn.subscribers_evicted");
  std::uint64_t dead_before = counter_value("wsn.dead_letters");
  auto ev = fx.event();
  for (int i = 0; i < 5; ++i) {
    // Only the live subscriber counts as delivered each round.
    EXPECT_EQ(fx.producer->notify("job/done", *ev), 1u);
  }
  EXPECT_TRUE(fx.producer->delivery_queue().evicted("http://dark/sink"));
  EXPECT_EQ(counter_value("wsn.subscribers_evicted"), evicted_before + 1);
  // 3 failed sequences + 2 shed after eviction, all dead-lettered.
  EXPECT_EQ(counter_value("wsn.dead_letters"), dead_before + 5);
  EXPECT_TRUE(fx.consumer.wait_for(5, 1000));

  // Re-subscribing reinstates the destination once the partition heals.
  fx.net.clear_fault_policy("dark");
  fx.subscribe("http://dark/sink");
  EXPECT_FALSE(fx.producer->delivery_queue().evicted("http://dark/sink"));
  // dark now holds two subscriptions (the dead one was never unsubscribed),
  // so one more publish delivers to c once and dark twice.
  EXPECT_EQ(fx.producer->notify("job/done", *ev), 3u);
  EXPECT_TRUE(fx.dark_consumer.wait_for(2, 1000));
}

}  // namespace
}  // namespace gs::wsn

// --- end-to-end: wse under injected faults ---------------------------------------

namespace gs::wse {
namespace {

xml::QName app2(const char* local) { return {"urn:app", local}; }

std::uint64_t counter_value(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name).value();
}

TEST(Reliability, PartitionedSinkIsEvictedFromEventFanOut) {
  common::ManualClock clock{10'000};
  net::VirtualNetwork net;
  SubscriptionStore store;
  wsn::NotificationConsumer live, dark;
  net.bind("c", live);
  net.bind("dark", dark);
  net::VirtualCaller sink(net,
                          {.transport = net::TransportKind::kSoapTcp});
  NotificationManager notifier(store, sink, clock,
                               {.evict_after_failures = 2});

  WseSubscription live_sub;
  live_sub.notify_to = soap::EndpointReference("soap.tcp://c/sink");
  live_sub.expires = WseSubscription::kNever;
  store.add(std::move(live_sub));
  WseSubscription dark_sub;
  dark_sub.notify_to = soap::EndpointReference("soap.tcp://dark/sink");
  dark_sub.expires = WseSubscription::kNever;
  store.add(std::move(dark_sub));

  net.set_fault_policy("dark", {.partitioned = true});
  std::uint64_t evicted_before = counter_value("wse.sinks_evicted");
  std::uint64_t dead_before = counter_value("wse.dead_letters");

  auto ev = std::make_unique<xml::Element>(app2("Event"));
  EXPECT_EQ(notifier.notify("t", *ev, "urn:app/Event"), 1u);
  EXPECT_EQ(notifier.notify("t", *ev, "urn:app/Event"), 1u);
  EXPECT_TRUE(notifier.delivery_queue().evicted("soap.tcp://dark/sink"));
  EXPECT_EQ(counter_value("wse.sinks_evicted"), evicted_before + 1);
  EXPECT_EQ(notifier.notify("t", *ev, "urn:app/Event"), 1u);  // shed cheaply
  EXPECT_EQ(counter_value("wse.dead_letters"), dead_before + 3);
  EXPECT_TRUE(live.wait_for(3, 1000));
}

TEST(Reliability, WseRetriesRecoverDroppedEvents) {
  common::ManualClock clock{10'000};
  net::VirtualNetwork net;
  SubscriptionStore store;
  wsn::NotificationConsumer consumer;
  net.bind("c", consumer);
  net::VirtualCaller raw(net, {.transport = net::TransportKind::kSoapTcp});
  net::RetryingCaller sink(
      raw, {.max_attempts = 8, .base_delay_ms = 1, .jitter = 0.0}, &clock,
      [](common::TimeMs) {});
  NotificationManager notifier(store, sink, clock, {});

  WseSubscription sub;
  sub.notify_to = soap::EndpointReference("soap.tcp://c/sink");
  sub.expires = WseSubscription::kNever;
  store.add(std::move(sub));
  net.set_fault_policy("c", {.drop_probability = 0.3, .seed = 77});

  auto ev = std::make_unique<xml::Element>(app2("Event"));
  size_t delivered = 0;
  for (int i = 0; i < 20; ++i) {
    delivered += notifier.notify("t", *ev, "urn:app/Event");
  }
  EXPECT_EQ(delivered, 20u);
  EXPECT_TRUE(consumer.wait_for(20, 1000));
}

}  // namespace
}  // namespace gs::wse
