// Time-series retention and cost-attribution tests: counter-rate math over
// actual elapsed time (resets, gaps, zero-elapsed cycles), rollup rings
// against a brute-force oracle, query resolution fallback, per-tenant cost
// attribution through the container pipeline, the EventLog sequence cursor
// across ring wraparound, and the Health rollup of the admission and
// breaker state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "container/admission.hpp"
#include "container/container.hpp"
#include "net/http.hpp"
#include "soap/namespaces.hpp"
#include "telemetry/cost.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/propagation.hpp"
#include "telemetry/service.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"
#include "xml/writer.hpp"

namespace gs::telemetry {
namespace {

TimeSeriesConfig config_for(MetricsRegistry& reg, const common::Clock& clock,
                            common::TimeMs interval_ms = 1000,
                            std::size_t raw = 120, std::size_t rollup = 120) {
  TimeSeriesConfig cfg;
  cfg.registry = &reg;
  cfg.clock = &clock;
  cfg.interval_ms = interval_ms;
  cfg.raw_capacity = raw;
  cfg.rollup_capacity = rollup;
  return cfg;
}

// --- counter rate semantics ------------------------------------------------

TEST(TimeSeries, CounterRateUsesActualElapsedTime) {
  MetricsRegistry reg;
  common::ManualClock clock{0};
  TimeSeriesStore store(config_for(reg, clock));

  MetricsSnapshot snap;
  snap.counters["app.requests"] = 0;
  store.sample_snapshot(snap, 1000);  // baseline: no counter point

  snap.counters["app.requests"] = 50;
  store.sample_snapshot(snap, 2000);  // +50 over 1000 ms -> 50/s

  // A late cycle: +100 over 2000 ms must read 50/s, not 100/s.
  snap.counters["app.requests"] = 150;
  store.sample_snapshot(snap, 4000);

  auto w = store.query("app.requests");
  ASSERT_EQ(w.points.size(), 2u);
  EXPECT_EQ(w.resolution, Resolution::kRaw);
  EXPECT_EQ(w.points[0].t_ms, 2000);
  EXPECT_DOUBLE_EQ(w.points[0].value, 50.0);
  EXPECT_EQ(w.points[1].t_ms, 4000);
  EXPECT_DOUBLE_EQ(w.points[1].value, 50.0);
}

TEST(TimeSeries, CounterResetReadsAsNewTotalNotNegativeSpike) {
  MetricsRegistry reg;
  common::ManualClock clock{0};
  TimeSeriesStore store(config_for(reg, clock));

  MetricsSnapshot snap;
  snap.counters["app.requests"] = 1000;
  store.sample_snapshot(snap, 1000);
  snap.counters["app.requests"] = 1200;
  store.sample_snapshot(snap, 2000);  // +200 -> 200/s
  // Process restart: the counter comes back smaller. Everything counted
  // since the restart happened inside this interval.
  snap.counters["app.requests"] = 30;
  store.sample_snapshot(snap, 3000);  // delta = 30 -> 30/s

  auto w = store.query("app.requests");
  ASSERT_EQ(w.points.size(), 2u);
  EXPECT_DOUBLE_EQ(w.points[0].value, 200.0);
  EXPECT_DOUBLE_EQ(w.points[1].value, 30.0);
  EXPECT_GE(w.points[1].value, 0.0);
}

TEST(TimeSeries, ZeroElapsedCycleOnlyAdvancesTheBaseline) {
  MetricsRegistry reg;
  common::ManualClock clock{0};
  TimeSeriesStore store(config_for(reg, clock));

  MetricsSnapshot snap;
  snap.counters["c"] = 0;
  snap.gauges["g"] = 7;
  store.sample_snapshot(snap, 1000);
  // Same instant again: no rate is computable, but the baseline moves.
  snap.counters["c"] = 40;
  store.sample_snapshot(snap, 1000);
  EXPECT_TRUE(store.query("c").points.empty());
  // The next real interval rates against the ADVANCED baseline (40), so
  // the 40 counted during the zero-elapsed cycle is never double-billed.
  snap.counters["c"] = 50;
  store.sample_snapshot(snap, 2000);
  auto w = store.query("c");
  ASSERT_EQ(w.points.size(), 1u);
  EXPECT_DOUBLE_EQ(w.points[0].value, 10.0);

  // Gauges are levels: every cycle yields a point, including the first
  // and the zero-elapsed one.
  EXPECT_EQ(store.query("g").points.size(), 3u);
  EXPECT_DOUBLE_EQ(store.query("g").points[0].value, 7.0);
}

TEST(TimeSeries, HistogramIntervalsYieldQuantilesAndEmptyOnesYieldGaps) {
  MetricsRegistry reg;
  common::ManualClock clock{0};
  TimeSeriesStore store(config_for(reg, clock));
  Histogram& h = reg.histogram("svc.latency_us");

  for (int i = 0; i < 100; ++i) h.record(100);
  store.sample_snapshot(reg.snapshot(), 1000);  // baseline

  for (int i = 0; i < 100; ++i) h.record(100);
  store.sample_snapshot(reg.snapshot(), 2000);  // interval of ~100us samples

  store.sample_snapshot(reg.snapshot(), 3000);  // nothing recorded: a gap

  for (int i = 0; i < 100; ++i) h.record(10000);
  store.sample_snapshot(reg.snapshot(), 4000);  // interval of ~10ms samples

  for (const char* series : {"svc.latency_us.p50", "svc.latency_us.p90",
                             "svc.latency_us.p99"}) {
    auto w = store.query(series);
    ASSERT_EQ(w.points.size(), 2u) << series;  // t=3000 is a gap, not a zero
    EXPECT_EQ(w.points[0].t_ms, 2000) << series;
    EXPECT_EQ(w.points[1].t_ms, 4000) << series;
    // Power-of-two buckets: within 2x of the true value, and the second
    // interval's quantile reflects ONLY its own samples (snapshot
    // subtraction), so it sits two orders of magnitude above the first.
    EXPECT_GT(w.points[0].value, 50.0) << series;
    EXPECT_LT(w.points[0].value, 200.0) << series;
    EXPECT_GT(w.points[1].value, 5000.0) << series;
  }
}

// --- rollups against a brute-force oracle ----------------------------------

TEST(TimeSeries, RollupsMatchBruteForceOracle) {
  MetricsRegistry reg;
  common::ManualClock clock{0};
  TimeSeriesStore store(config_for(reg, clock));

  // 600 raw points, value = i: every mid/coarse boundary divides evenly.
  constexpr int kPoints = 600;
  std::vector<double> values;
  for (int i = 0; i < kPoints; ++i) {
    values.push_back(static_cast<double>(i));
    store.ingest("load", (i + 1) * 1000, values.back());
  }

  // Mid ring: one point per 10 raw points. Raw capacity 120 keeps only the
  // tail, so ask for a window the raw ring has lost but mid still covers.
  auto mid = store.query("load", 15'000);
  EXPECT_EQ(mid.resolution, Resolution::kMid);
  EXPECT_EQ(mid.interval_ms, 10'000);
  ASSERT_FALSE(mid.points.empty());
  for (const SeriesPoint& p : mid.points) {
    // Point at t = (10k+10)*1000 folds raw indices [10k, 10k+10).
    ASSERT_EQ(p.t_ms % 10'000, 0);
    int k = static_cast<int>(p.t_ms / 10'000) - 1;
    double sum = 0, lo = values[10 * k], hi = lo;
    for (int i = 10 * k; i < 10 * k + 10; ++i) {
      sum += values[i];
      lo = std::min(lo, values[i]);
      hi = std::max(hi, values[i]);
    }
    EXPECT_DOUBLE_EQ(p.value, sum / 10.0) << p.t_ms;
    EXPECT_DOUBLE_EQ(p.min, lo) << p.t_ms;
    EXPECT_DOUBLE_EQ(p.max, hi) << p.t_ms;
    EXPECT_EQ(p.samples, 10u) << p.t_ms;
  }

  // Coarse ring: one point per 60 raw points; a query from the epoch can
  // only be answered there (every finer ring has evicted t=1000).
  auto coarse = store.query("load", 0);
  EXPECT_EQ(coarse.resolution, Resolution::kCoarse);
  EXPECT_EQ(coarse.interval_ms, 60'000);
  ASSERT_EQ(coarse.points.size(), kPoints / 60u);
  for (std::size_t k = 0; k < coarse.points.size(); ++k) {
    const SeriesPoint& p = coarse.points[k];
    EXPECT_EQ(p.t_ms, static_cast<common::TimeMs>((k + 1) * 60'000));
    double first = static_cast<double>(60 * k);
    // Mean of an arithmetic run [60k, 60k+60): 60k + 29.5.
    EXPECT_DOUBLE_EQ(p.value, first + 29.5);
    EXPECT_DOUBLE_EQ(p.min, first);
    EXPECT_DOUBLE_EQ(p.max, first + 59.0);
    EXPECT_EQ(p.samples, 60u);
  }

  // A recent window is answered at full (raw) resolution.
  auto raw = store.query("load", 590'000);
  EXPECT_EQ(raw.resolution, Resolution::kRaw);
  ASSERT_EQ(raw.points.size(), 11u);
  EXPECT_DOUBLE_EQ(raw.points.back().value, 599.0);
  EXPECT_EQ(raw.points.back().samples, 1u);
}

TEST(TimeSeries, QueryClipsToEndAndUnknownSeriesIsEmpty) {
  MetricsRegistry reg;
  common::ManualClock clock{0};
  TimeSeriesStore store(config_for(reg, clock));
  for (int i = 1; i <= 5; ++i) store.ingest("s", i * 1000, i);

  auto w = store.query("s", 2000, 4000);
  ASSERT_EQ(w.points.size(), 3u);
  EXPECT_EQ(w.points.front().t_ms, 2000);
  EXPECT_EQ(w.points.back().t_ms, 4000);

  EXPECT_TRUE(store.query("nope").points.empty());
  auto names = store.series_names();
  EXPECT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "s");
}

TEST(TimeSeries, PollHonorsTheSamplingInterval) {
  MetricsRegistry reg;
  common::ManualClock clock{1000};
  TimeSeriesStore store(config_for(reg, clock, 1000));
  reg.gauge("g").set(1);

  EXPECT_TRUE(store.poll());   // first cycle always runs
  EXPECT_FALSE(store.poll());  // interval not yet elapsed
  clock.advance(999);
  EXPECT_FALSE(store.poll());
  clock.advance(1);
  EXPECT_TRUE(store.poll());
  EXPECT_EQ(store.samples_taken(), 2u);
}

// --- TSan target: sampler, ingester, and request threads share the store --

TEST(TimeSeries, ConcurrentWritersSamplerAndSloReaderAreRaceFree) {
  MetricsRegistry reg;
  TimeSeriesStore store(config_for(reg, common::RealClock::instance(), 1));
  SloTracker slo(&store);
  slo.add_objective({.name = "avail",
                     .good_metric = "hammer.ok",
                     .bad_metrics = {"hammer.bad"},
                     .series = {},
                     .target = 0.9});

  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIters; ++i) {
        reg.counter("hammer.ok").add(2);
        reg.counter("hammer.bad").add(1);
        reg.histogram("hammer.us").record(static_cast<std::uint64_t>(i));
      }
    });
  }
  threads.emplace_back([&store] {
    for (int i = 0; i < kIters / 4; ++i) store.sample();
  });
  threads.emplace_back([&store] {
    for (int i = 0; i < kIters / 4; ++i) {
      store.ingest("remote|hammer.ok", i, static_cast<double>(i));
    }
  });
  threads.emplace_back([&store, &slo] {
    for (int i = 0; i < kIters / 4; ++i) {
      (void)store.query("hammer.ok");
      (void)slo.status();
      (void)slo.evaluate(common::RealClock::instance().now());
    }
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(store.samples_taken(), static_cast<std::uint64_t>(kIters / 4));
  EXPECT_EQ(store.query("remote|hammer.ok").points.size(),
            static_cast<std::size_t>(kIters / 4));
}

// --- per-tenant cost attribution -------------------------------------------

TEST(Cost, AggregatorKeepsLosslessTotalsAndEmitsTenantMetrics) {
  MetricsRegistry reg;
  CostAggregator agg(&reg);

  CostRecord r;
  r.wall_us = 100;
  r.parse_us = 30;
  r.serialize_us = 20;
  r.xml_nodes = 40;
  r.arena_bytes = 4096;
  r.request_bytes = 500;
  r.response_bytes = 700;
  agg.record("alice", "/Counter", r);
  agg.record("alice", "/Telemetry", r);
  r.fault = true;
  agg.record("bob", "/Counter", r);

  EXPECT_EQ(agg.requests_recorded(), 3u);
  auto totals = agg.totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].tenant, "alice");  // sorted by id
  EXPECT_EQ(totals[1].tenant, "bob");

  auto alice = agg.tenant("alice");
  ASSERT_TRUE(alice.has_value());
  EXPECT_EQ(alice->total.requests, 2u);
  EXPECT_EQ(alice->total.faults, 0u);
  EXPECT_EQ(alice->total.wall_us, 200u);
  EXPECT_EQ(alice->total.request_bytes, 1000u);
  EXPECT_EQ(alice->total.response_bytes, 1400u);
  EXPECT_EQ(alice->total.xml_nodes, 80u);
  EXPECT_EQ(alice->total.arena_bytes, 8192u);
  ASSERT_EQ(alice->by_service.size(), 2u);
  EXPECT_EQ(alice->by_service.at("/Counter").requests, 1u);
  EXPECT_EQ(alice->by_service.at("/Telemetry").requests, 1u);

  auto bob = agg.tenant("bob");
  ASSERT_TRUE(bob.has_value());
  EXPECT_EQ(bob->total.faults, 1u);
  EXPECT_FALSE(agg.tenant("mallory").has_value());

  // The registry mirror downstream consumers (series, monitor, SLOs)
  // read from.
  EXPECT_EQ(reg.counter("tenant.alice.requests").value(), 2u);
  EXPECT_EQ(reg.counter("tenant.alice.bytes_in").value(), 1000u);
  EXPECT_EQ(reg.counter("tenant.alice.bytes_out").value(), 1400u);
  EXPECT_EQ(reg.histogram("tenant.alice.wall_us").count(), 2u);
  EXPECT_EQ(reg.counter("tenant.bob.requests").value(), 1u);
}

class PongService : public container::Service {
 public:
  PongService() : container::Service("Pong") {
    register_operation("urn:t/Ping", [](container::RequestContext& ctx) {
      soap::Envelope r = make_response(ctx, "urn:t/PingResponse");
      r.add_payload(xml::QName("urn:t", "Pong"));
      return r;
    });
  }
};

soap::Envelope ping_envelope() {
  soap::Envelope env;
  soap::MessageInfo info;
  info.action = "urn:t/Ping";
  info.message_id = "urn:uuid:timeseries-1";
  env.write_addressing(info);
  env.add_payload(xml::QName("urn:t", "Ping"));
  return env;
}

// The pipeline end of attribution: requests flow through the container
// (admission classifies the tenant from X-GS-Tenant per PR 8) and land in
// the aggregator with transport byte counts and pipeline timings filled in.
TEST(Cost, ContainerAttributesRequestsToTenantsFromTheWire) {
  MetricsRegistry reg;
  container::Container container{{.clock = &common::RealClock::instance(),
                                  .metrics = &reg}};
  container.chain().insert_before(
      "parse", std::make_shared<container::AdmissionHandler>(
                   std::make_shared<container::AdmissionController>(
                       container::AdmissionConfig{.queue_depth = {},
                                                  .per_tenant = {},
                                                  .tenant_overrides = {},
                                                  .metrics = &reg})));
  PongService svc;
  container.deploy("/Pong", svc);
  CostAggregator costs(&reg);
  container.set_cost_aggregator(&costs);

  net::HttpRequest http;
  http.path = "/Pong";
  http.body = ping_envelope().to_xml();

  http.headers["X-GS-Tenant"] = "alice";
  EXPECT_EQ(container.handle(http).status, 200);
  EXPECT_EQ(container.handle(http).status, 200);
  http.headers["X-GS-Tenant"] = "bob";
  EXPECT_EQ(container.handle(http).status, 200);
  http.headers.erase("X-GS-Tenant");  // untagged traffic pools under anon
  EXPECT_EQ(container.handle(http).status, 200);

  // A malformed request is still somebody's spend — and a fault.
  net::HttpRequest bad;
  bad.path = "/Pong";
  bad.headers["X-GS-Tenant"] = "bob";
  bad.body = "<not-xml";
  EXPECT_NE(container.handle(bad).status, 200);

  EXPECT_EQ(costs.requests_recorded(), 5u);
  auto alice = costs.tenant("alice");
  ASSERT_TRUE(alice.has_value());
  EXPECT_EQ(alice->total.requests, 2u);
  EXPECT_EQ(alice->total.faults, 0u);
  EXPECT_EQ(alice->total.request_bytes, 2 * http.body.size());
  EXPECT_GT(alice->total.response_bytes, 0u);
  EXPECT_GT(alice->total.xml_nodes, 0u);
  ASSERT_EQ(alice->by_service.count("/Pong"), 1u);
  EXPECT_EQ(alice->by_service.at("/Pong").requests, 2u);

  auto bob = costs.tenant("bob");
  ASSERT_TRUE(bob.has_value());
  EXPECT_EQ(bob->total.requests, 2u);
  EXPECT_EQ(bob->total.faults, 1u);

  auto anon = costs.tenant("anon");
  ASSERT_TRUE(anon.has_value());
  EXPECT_EQ(anon->total.requests, 1u);

  EXPECT_EQ(reg.counter("tenant.alice.requests").value(), 2u);
  EXPECT_EQ(reg.counter("tenant.bob.requests").value(), 2u);
}

// --- EventLog sequence cursor ----------------------------------------------

TEST(EventLogCursor, SequenceSurvivesWraparoundAndExposesLoss) {
  EventLog log(4);
  for (int i = 1; i <= 6; ++i) {
    log.emit(Level::kInfo, "test", "event " + std::to_string(i));
  }
  EXPECT_EQ(log.last_seq(), 6u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 2u);

  // The ring kept 3..6; a consumer resuming from 0 sees the first seq jump
  // past 1 — detectable loss, not silent truncation.
  auto all = log.events_since(0);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all.front().seq, 3u);
  EXPECT_EQ(all.back().seq, 6u);
  EXPECT_EQ(all.front().message, "event 3");

  auto tail = log.events_since(4);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 5u);
  EXPECT_EQ(tail[1].seq, 6u);
  EXPECT_TRUE(log.events_since(6).empty());
  EXPECT_TRUE(log.events_since(99).empty());

  // clear() keeps the sequence monotonic: a resumed cursor never sees a
  // seq it already consumed reused for a different event.
  log.clear();
  log.emit(Level::kInfo, "test", "after clear");
  EXPECT_EQ(log.last_seq(), 7u);
  ASSERT_EQ(log.events_since(6).size(), 1u);
  EXPECT_EQ(log.events_since(6)[0].message, "after clear");
}

// --- Health rollup (regression: admission/breaker state was invisible) -----

const xml::Element* find_child(const xml::Element& parent,
                               const std::string& local) {
  for (const xml::Element* el : parent.child_elements()) {
    if (el->name().local() == local) return el;
  }
  return nullptr;
}

TEST(Health, RollupCoversAdmissionAndBreaker) {
  MetricsRegistry reg;
  reg.counter("container.admitted").add(10);
  reg.counter("container.shed_total").add(3);
  reg.gauge("net.breaker_open_routes").set(1);
  reg.counter("net.breaker_opened").add(2);
  EventLog events;

  auto doc = telemetry_document(reg, TraceLog::global(), &events);
  const xml::Element* health = find_child(*doc, "Health");
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->attr("admitted"), "10");
  EXPECT_EQ(health->attr("shed_total"), "3");

  const xml::Element* breaker = find_child(*health, "Breaker");
  ASSERT_NE(breaker, nullptr);
  EXPECT_EQ(breaker->attr("open_routes"), "1");
  EXPECT_EQ(breaker->attr("opened"), "2");
}

TEST(Health, RollupSectionsAbsentWhenSubsystemsAreSilent) {
  MetricsRegistry reg;  // nothing from admission or breaker
  EventLog events;
  auto doc = telemetry_document(reg, TraceLog::global(), &events);
  const xml::Element* health = find_child(*doc, "Health");
  ASSERT_NE(health, nullptr);
  EXPECT_FALSE(health->attr("admitted").has_value());
  EXPECT_FALSE(health->attr("shed_total").has_value());
  EXPECT_EQ(find_child(*health, "Breaker"), nullptr);
}

// --- pinned wire octets ------------------------------------------------------

// A fixed registry renders to fixed octets: the element order, attribute
// set and number formatting of Counter/Gauge/Histogram are wire contract.
TEST(TelemetryDocument, OctetsArePinned) {
  MetricsRegistry reg;
  reg.counter("app.requests").add(3);
  reg.gauge("app.depth").set(-2);
  Histogram& latency = reg.histogram("app.latency_us");
  for (std::uint64_t us : {1, 5, 100}) latency.record(us);
  TraceLog empty;

  auto doc = telemetry_document(reg, empty);
  EXPECT_EQ(xml::write(*doc),
            R"(<t:Telemetry xmlns:t="http://gridstacks.dev/telemetry">)"
            R"(<t:Counter name="app.requests">3</t:Counter>)"
            R"(<t:Gauge name="app.depth">-2</t:Gauge>)"
            R"(<t:Histogram name="app.latency_us" count="3" sum_us="106")"
            R"( min_us="1" max_us="100" p50_us="8.0" p90_us="128.0")"
            R"( p99_us="128.0"/></t:Telemetry>)");
}

// The same logged event renders to the same <t:Event> in the document and
// in the Events/<seq> cursor, which adds only its seq.
TEST(TelemetryDocument, EventOctetsArePinnedInDocumentAndCursor) {
  MetricsRegistry reg;
  TraceLog empty;
  EventLog events;
  Event event;
  event.ts_us = 1234;
  event.level = Level::kWarn;
  event.component = "net.retry";
  event.message = "retry <budget> exhausted";
  event.trace_id = 42;
  event.attrs = {{"address", "http://node1/a?b&c"}, {"attempts", "3"}};
  events.log(std::move(event));

  auto doc = telemetry_document(reg, empty, &events);
  const xml::Element* in_doc = find_child(*doc, "Event");
  ASSERT_NE(in_doc, nullptr);
  EXPECT_EQ(xml::write(*in_doc),
            R"(<n1:Event xmlns:n1="http://gridstacks.dev/telemetry")"
            R"( ts_us="1234" level="WARN" component="net.retry" trace="42">)"
            R"(retry &lt;budget&gt; exhausted)"
            R"(<n1:Attr name="address">http://node1/a?b&amp;c</n1:Attr>)"
            R"(<n1:Attr name="attempts">3</n1:Attr></n1:Event>)");

  container::Container app({});
  TelemetryService telemetry("http://app/Telemetry", &reg, &empty, &events);
  app.deploy("/Telemetry", telemetry);
  soap::Envelope request;
  soap::MessageInfo info;
  info.action = std::string(soap::ns::kWsrfRp) + "/GetResourceProperty";
  info.message_id = "urn:uuid:pin-1";
  request.write_addressing(info);
  request.add_payload({soap::ns::kWsrfRp, "GetResourceProperty"})
      .set_text("Events/0");
  soap::Envelope response = app.process(request, "/Telemetry");
  ASSERT_FALSE(response.is_fault());
  const xml::Element* cursor = response.payload()->child(
      xml::QName{kTelemetryNs, "Events"});
  ASSERT_NE(cursor, nullptr);
  EXPECT_EQ(xml::write(*cursor),
            R"(<t:Events xmlns:t="http://gridstacks.dev/telemetry")"
            R"( since="0" last_seq="1">)"
            R"(<t:Event seq="1" ts_us="1234" level="WARN" component="net.retry")"
            R"( trace="42">retry &lt;budget&gt; exhausted)"
            R"(<t:Attr name="address">http://node1/a?b&amp;c</t:Attr>)"
            R"(<t:Attr name="attempts">3</t:Attr></t:Event></t:Events>)");
}

// --- the series window element the wire queries serialize ------------------

TEST(SeriesElement, CarriesResolutionIntervalAndPoints) {
  MetricsRegistry reg;
  common::ManualClock clock{0};
  TimeSeriesStore store(config_for(reg, clock));
  store.ingest("net.rate", 1000, 5.0);
  store.ingest("net.rate", 2000, 7.0);

  auto el = series_element("net.rate", store.query("net.rate"));
  EXPECT_EQ(el->name().local(), "Series");
  EXPECT_EQ(el->attr("name"), "net.rate");
  EXPECT_EQ(el->attr("resolution"), "raw");
  EXPECT_EQ(el->attr("interval_ms"), "1000");
  auto points = el->child_elements();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0]->attr("t_ms"), "1000");
  EXPECT_EQ(points[0]->attr("value"), "5.0");
  EXPECT_EQ(points[1]->attr("samples"), "1");
}

}  // namespace
}  // namespace gs::telemetry
