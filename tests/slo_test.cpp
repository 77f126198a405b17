// SLO burn-rate acceptance: seeded faults drive a container's error ratio
// past its availability objective's budget; the MonitorProducer publishes
// the edge-triggered burn alert over BOTH stacks; the alert, the <t:Slo>
// status rows, and the error-rate series window (showing the spike) are
// readable over the wire via WSRF GetResourceProperty AND WS-Transfer Get;
// recovery produces exactly one clearing transition — no alert floods.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "container/container.hpp"
#include "container/proxy.hpp"
#include "net/retry.hpp"
#include "soap/namespaces.hpp"
#include "net/virtual_network.hpp"
#include "telemetry/cost.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/propagation.hpp"
#include "telemetry/service.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"
#include "wse/service.hpp"
#include "wsn/producer.hpp"
#include "wsrf/resource.hpp"
#include "xmldb/database.hpp"

namespace gs::telemetry {
namespace {

// --- unit: burn-rate math over a hand-fed store ----------------------------

TimeSeriesConfig store_config(MetricsRegistry& reg, const common::Clock& clock) {
  TimeSeriesConfig cfg;
  cfg.registry = &reg;
  cfg.clock = &clock;
  cfg.interval_ms = 1000;
  return cfg;
}

TEST(Slo, AvailabilityBurnNeedsBothWindowsOverThreshold) {
  MetricsRegistry reg;
  common::ManualClock clock{0};
  TimeSeriesStore store(store_config(reg, clock));
  SloTracker slo(&store, &clock);
  slo.add_objective({.name = "availability",
                     .good_metric = "svc.ok",
                     .bad_metrics = {"svc.err"},
                     .series = {},
                     .target = 0.9,  // 10% error budget
                     .short_window_ms = 3000,
                     .long_window_ms = 10'000,
                     .burn_threshold = 1.0});

  // Ten healthy intervals: 10 good/s, 0 bad/s.
  for (int t = 1; t <= 10; ++t) {
    store.ingest("svc.ok", t * 1000, 10.0);
    store.ingest("svc.err", t * 1000, 0.0);
  }
  clock.set(10'000);
  EXPECT_TRUE(slo.evaluate(clock.now()).empty());
  auto status = slo.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_FALSE(status[0].firing);
  EXPECT_DOUBLE_EQ(status[0].error_ratio_short, 0.0);

  // Three bad intervals: 50% errors. Short window (last 3 points) is all
  // bad -> burn 5.0; long window still averages in the healthy history but
  // also exceeds budget -> both over threshold, one firing transition.
  for (int t = 11; t <= 13; ++t) {
    store.ingest("svc.ok", t * 1000, 10.0);
    store.ingest("svc.err", t * 1000, 10.0);
  }
  clock.set(13'000);
  auto alerts = slo.evaluate(clock.now());
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].firing);
  EXPECT_EQ(alerts[0].objective, "availability");
  EXPECT_GT(alerts[0].burn_short, 1.0);
  EXPECT_NE(alerts[0].detail.find("burning"), std::string::npos);
  EXPECT_TRUE(slo.evaluate(clock.now()).empty());  // latched while bad
  EXPECT_TRUE(slo.status()[0].firing);

  // Healthy again: the short window clears first, which is enough to end
  // the episode (firing requires BOTH windows over threshold).
  for (int t = 14; t <= 17; ++t) {
    store.ingest("svc.ok", t * 1000, 10.0);
    store.ingest("svc.err", t * 1000, 0.0);
  }
  clock.set(17'000);
  auto cleared = slo.evaluate(clock.now());
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_FALSE(cleared[0].firing);
  EXPECT_NE(cleared[0].detail.find("recovered"), std::string::npos);
  EXPECT_TRUE(slo.evaluate(clock.now()).empty());
}

TEST(Slo, LatencyObjectiveCountsSlowIntervalsAgainstP99Series) {
  MetricsRegistry reg;
  common::ManualClock clock{0};
  TimeSeriesStore store(store_config(reg, clock));
  SloTracker slo(&store, &clock);
  slo.add_objective({.name = "latency",
                     .kind = SloObjective::Kind::kThreshold,
                     .good_metric = {},
                     .bad_metrics = {},
                     .series = "svc.us.p99",
                     .threshold = 1000.0,
                     .target = 0.5,  // half the intervals may be slow
                     .short_window_ms = 4000,
                     .long_window_ms = 8000});

  for (int t = 1; t <= 8; ++t) {
    store.ingest("svc.us.p99", t * 1000, t <= 4 ? 100.0 : 5000.0);
  }
  clock.set(8000);
  // Short window [4000, 8000]: p99 points at 4000(fast),5000..8000(slow) ->
  // 4/5 slow, burn 1.6; long window: 4/8... the t=4000 fast point is in
  // both. Long [0,8000]: 4 slow of 8 -> ratio 0.5, burn 1.0, NOT over.
  EXPECT_TRUE(slo.evaluate(clock.now()).empty());
  // One more slow interval pushes the long window over budget too.
  store.ingest("svc.us.p99", 9000, 5000.0);
  clock.set(9000);
  auto alerts = slo.evaluate(clock.now());
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].firing);
  EXPECT_EQ(alerts[0].objective, "latency");
}

TEST(Slo, StatusBetweenTicksReportsTheBurnThatFired) {
  // A one-tick threshold rule (0 ms windows) sees only the point sampled at
  // the evaluated instant. status() read later on the clock must judge at
  // that instant too, or a firing objective reads burn 0 between ticks.
  MetricsRegistry reg;
  common::ManualClock clock{0};
  TimeSeriesStore store(store_config(reg, clock));
  SloTracker slo(&store, &clock);
  SloObjective hot;
  hot.name = "hot";
  hot.kind = SloObjective::Kind::kThreshold;
  hot.series = "svc.load";
  hot.threshold = 10.0;
  hot.target = 0.5;
  hot.short_window_ms = 0;
  hot.long_window_ms = 0;
  slo.add_objective(hot);
  store.ingest("svc.load", 1000, 50.0);
  clock.set(1000);
  auto alerts = slo.evaluate(clock.now());
  ASSERT_EQ(alerts.size(), 1u);
  ASSERT_TRUE(alerts[0].firing);

  clock.advance(400);  // between ticks: no point at the clock's now
  auto status = slo.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_TRUE(status[0].firing);
  EXPECT_DOUBLE_EQ(status[0].burn_short, alerts[0].burn_short);
  EXPECT_DOUBLE_EQ(status[0].burn_long, alerts[0].burn_long);
  EXPECT_DOUBLE_EQ(status[0].error_ratio_short, 1.0);
}

// --- the acceptance scenario: dual-stack, over the wire --------------------

xml::QName t(const char* local) { return {kTelemetryNs, local}; }

class FlakyService : public container::Service {
 public:
  FlakyService() : container::Service("Flaky") {
    register_operation("urn:t/Ok", [](container::RequestContext& ctx) {
      soap::Envelope r = make_response(ctx, "urn:t/OkResponse");
      r.add_payload(xml::QName("urn:t", "Done"));
      return r;
    });
    register_operation("urn:t/Boom", [](container::RequestContext&)
                           -> soap::Envelope {
      throw soap::SoapFault("Receiver", "seeded fault");
    });
  }
};

soap::Envelope request_for(const char* op) {
  soap::Envelope env;
  soap::MessageInfo info;
  info.action = std::string("urn:t/") + op;
  info.message_id = "urn:uuid:slo-1";
  env.write_addressing(info);
  env.add_payload(xml::QName("urn:t", op));
  return env;
}

class RawProxy : public container::ProxyBase {
 public:
  using container::ProxyBase::ProxyBase;
  soap::Envelope call_action(const std::string& action,
                             std::unique_ptr<xml::Element> payload = nullptr) {
    return invoke(action, std::move(payload));
  }
};

const xml::Element* find_named(const std::vector<const xml::Element*>& els,
                               const std::string& local,
                               const std::string& name_attr = "") {
  for (const xml::Element* el : els) {
    if (el->name().local() != local) continue;
    if (!name_attr.empty() && el->attr("name") != name_attr) continue;
    return el;
  }
  return nullptr;
}

/// One app container whose registry feeds a TimeSeriesStore + SloTracker,
/// monitored by a MonitorProducer publishing over wsn AND wse to one
/// consumer per stack (the monitor_test fixture shape, plus retention).
struct SloFixture {
  common::ManualClock clock{1000};
  net::VirtualNetwork net;
  MetricsRegistry registry;
  TimeSeriesStore store{store_config(registry, clock)};
  SloTracker slo{&store, &clock};
  CostAggregator costs{&registry};

  // --- the measured app container ("app") ---
  container::Container app{{.clock = &clock, .metrics = &registry}};
  FlakyService flaky;
  TelemetryService telemetry{"http://app/Telemetry", &registry,
                             &TraceLog::global(), &EventLog::global(),
                             &store, &slo, &costs};

  // --- wsn producer side ("p") ---
  xmldb::XmlDatabase db{std::make_unique<xmldb::MemoryBackend>(), {}};
  container::Container wsn_container{{.clock = &clock}};
  wsrf::ResourceHome sub_home{db, "subs", &wsn_container.lifetime()};
  std::unique_ptr<wsn::SubscriptionManagerService> wsn_manager;
  std::unique_ptr<container::Service> source_service;
  std::unique_ptr<net::VirtualCaller> wsn_sink;
  std::unique_ptr<wsn::NotificationProducer> wsn_producer;

  // --- wse producer side ("s") ---
  container::Container wse_container{{.clock = &clock}};
  wse::SubscriptionStore sub_store;
  std::unique_ptr<wse::WseSubscriptionManagerService> wse_manager;
  std::unique_ptr<wse::EventSourceService> event_source;
  std::unique_ptr<net::VirtualCaller> wse_sink;
  std::unique_ptr<wse::NotificationManager> notifier;

  // --- one consumer per stack, with a fleet store on the wsn side ---
  MonitorConsumer wsn_monitor;
  MonitorConsumer wse_monitor;
  MetricsRegistry fleet_registry;  // backs the consumer-side store
  TimeSeriesStore fleet_store{store_config(fleet_registry, clock)};
  std::unique_ptr<net::VirtualCaller> caller;

  std::unique_ptr<MonitorProducer> producer;

  SloFixture() {
    app.deploy("/Flaky", flaky);
    app.deploy("/Telemetry", telemetry);
    app.set_cost_aggregator(&costs);
    net.bind("app", app);

    caller =
        std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});

    wsn_manager = std::make_unique<wsn::SubscriptionManagerService>(
        sub_home, "http://p/Subscriptions");
    source_service = std::make_unique<container::Service>("Source");
    wsn_sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.keep_alive = false});
    wsn_producer = std::make_unique<wsn::NotificationProducer>(
        wsn::NotificationProducer::Config{.sink_caller = wsn_sink.get(),
                                          .producer_address = "http://p/Source",
                                          .manager = wsn_manager.get(),
                                          .clock = &clock},
        monitor_topics());
    wsn_producer->register_into(*source_service);
    wsn_container.deploy("/Source", *source_service);
    wsn_container.deploy("/Subscriptions", *wsn_manager);

    wse_manager = std::make_unique<wse::WseSubscriptionManagerService>(
        sub_store, "http://s/Subscriptions", clock);
    event_source = std::make_unique<wse::EventSourceService>(
        "Events", sub_store, *wse_manager, clock);
    wse_sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{
                 .transport = net::TransportKind::kSoapTcp});
    notifier = std::make_unique<wse::NotificationManager>(sub_store, *wse_sink,
                                                          clock);
    wse_container.deploy("/Events", *event_source);
    wse_container.deploy("/Subscriptions", *wse_manager);

    net.bind("p", wsn_container);
    net.bind("s", wse_container);
    net.bind("cw", wsn_monitor);
    net.bind("ce", wse_monitor);

    slo.add_objective({.name = "availability",
                       .good_metric = "container.requests",
                       .bad_metrics = {"container.faults"},
                       .series = {},
                       .target = 0.9,
                       .short_window_ms = 3000,
                       .long_window_ms = 10'000,
                       .burn_threshold = 1.0});

    producer = std::make_unique<MonitorProducer>(MonitorProducer::Config{
        .registry = &registry,
        .producer_address = "http://p/Source",
        .wsn = wsn_producer.get(),
        .wse = notifier.get(),
        .clock = &clock,
        .interval_ms = 1000,
        .series = &store,
        .slo = &slo,
    });

    wsn_monitor.attach_series(&fleet_store);
    wsn_monitor.subscribe_wsn(*caller, "http://p/Source", "http://cw/sink");
    wse_monitor.subscribe_wse(*caller, "http://s/Events", "http://ce/sink");
  }

  void good_request() {
    net::HttpRequest http;
    http.path = "/Flaky";
    http.body = request_for("Ok").to_xml();
    ASSERT_EQ(app.handle(http).status, 200);
  }

  void bad_request() {
    net::HttpRequest http;
    http.path = "/Flaky";
    http.body = request_for("Boom").to_xml();
    ASSERT_NE(app.handle(http).status, 200);
  }
};

TEST(Slo, BurnAlertFiresOverBothStacksAndIsQueryableOverTheWire) {
  SloFixture fx;
  std::uint64_t seq_before = EventLog::global().last_seq();

  // Phase 1: healthy traffic. Five good requests per tick, six ticks.
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 5; ++j) fx.good_request();
    fx.clock.advance(1000);
    fx.producer->tick();
  }
  EXPECT_EQ(fx.producer->alerts_fired(), 0u);
  EXPECT_EQ(fx.wsn_monitor.alert_count(), 0u);
  EXPECT_EQ(fx.wse_monitor.alert_count(), 0u);

  // Phase 2: seeded faults swamp the error budget (95% errors per tick
  // against a 10% budget) until the burn alert fires on both stacks.
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 20; ++j) fx.bad_request();
    fx.good_request();
    fx.clock.advance(1000);
    fx.producer->tick();
  }
  EXPECT_EQ(fx.producer->alerts_fired(), 1u);

  for (MonitorConsumer* monitor : {&fx.wsn_monitor, &fx.wse_monitor}) {
    EXPECT_EQ(monitor->alert_count(), 1u);
    auto state = monitor->state_for("http://p/Source");
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(state->last_alert, "slo:availability");
    EXPECT_EQ(state->snapshots, 10u);
  }
  // Each stack saw its own framing.
  EXPECT_GT(fx.wsn_monitor.state_for("http://p/Source")->via_wsn, 0u);
  EXPECT_GT(fx.wse_monitor.state_for("http://p/Source")->via_wse, 0u);

  // The consumer-side fleet store retained the producer's series: the
  // remote fault rate shows the same spike, keyed producer|metric.
  auto fleet = fx.fleet_store.query("http://p/Source|container.faults");
  ASSERT_GE(fleet.points.size(), 2u);
  EXPECT_DOUBLE_EQ(fleet.points.front().value, 0.0);
  EXPECT_GT(fleet.points.back().value, 10.0);

  // --- read the firing objective over the wire, both ways ---
  RawProxy proxy(*fx.caller,
                 soap::EndpointReference("http://app/Telemetry"));
  const std::string rp_ns(soap::ns::kWsrfRp);
  const std::string wst_ns(soap::ns::kTransfer);

  // WSRF: GetResourceProperty("Slos").
  auto prop = std::make_unique<xml::Element>(
      xml::QName{soap::ns::kWsrfRp, "GetResourceProperty"});
  prop->set_text("Slos");
  soap::Envelope rp_resp =
      proxy.call_action(rp_ns + "/GetResourceProperty", std::move(prop));
  const xml::Element* slo_el = rp_resp.payload()->child(t("Slo"));
  ASSERT_NE(slo_el, nullptr);
  EXPECT_EQ(slo_el->attr("name"), "availability");
  EXPECT_EQ(slo_el->attr("firing"), "true");
  EXPECT_GT(std::stod(std::string(*slo_el->attr("burn_short"))), 1.0);

  // WS-Transfer: Get returns the whole document with the same row.
  soap::Envelope get_resp = proxy.call_action(wst_ns + "/Get");
  const xml::Element* doc = get_resp.payload();
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->name().local(), "Telemetry");
  const xml::Element* doc_slo =
      find_named(doc->child_elements(), "Slo", "availability");
  ASSERT_NE(doc_slo, nullptr);
  EXPECT_EQ(doc_slo->attr("firing"), "true");
  EXPECT_NE(find_named(doc->child_elements(), "Series", "container.faults"),
            nullptr);

  // --- the series window shows the error-rate spike, both ways ---
  auto series_prop = std::make_unique<xml::Element>(
      xml::QName{soap::ns::kWsrfRp, "GetResourceProperty"});
  series_prop->set_text("Series/container.faults");
  soap::Envelope series_resp = proxy.call_action(
      rp_ns + "/GetResourceProperty", std::move(series_prop));
  const xml::Element* series_el = series_resp.payload()->child(t("Series"));
  ASSERT_NE(series_el, nullptr);
  EXPECT_EQ(series_el->attr("resolution"), "raw");
  auto points = series_el->child_elements();
  ASSERT_GE(points.size(), 8u);  // healthy history + the spike
  EXPECT_DOUBLE_EQ(std::stod(std::string(*points.front()->attr("value"))),
                   0.0);
  EXPECT_GT(std::stod(std::string(*points.back()->attr("value"))), 10.0);

  // Clipped window (WS-Transfer flavor): only the spike remains.
  common::TimeMs start = fx.clock.now() - 3000;
  auto window_req = std::make_unique<xml::Element>(
      xml::QName{soap::ns::kTransfer, "Get"});
  window_req->set_text("Series/container.faults/" + std::to_string(start));
  soap::Envelope window_resp =
      proxy.call_action(wst_ns + "/Get", std::move(window_req));
  const xml::Element* window_el = window_resp.payload();
  ASSERT_NE(window_el, nullptr);
  ASSERT_EQ(window_el->name().local(), "Series");
  auto clipped = window_el->child_elements();
  ASSERT_FALSE(clipped.empty());
  EXPECT_LT(clipped.size(), points.size());
  for (const xml::Element* p : clipped) {
    EXPECT_GE(std::stoll(std::string(*p->attr("t_ms"))), start);
    EXPECT_GT(std::stod(std::string(*p->attr("value"))), 10.0);
  }

  // --- the alert's EventLog story is pullable through the seq cursor ---
  auto events_req = std::make_unique<xml::Element>(
      xml::QName{soap::ns::kWsrfRp, "GetResourceProperty"});
  events_req->set_text("Events/" + std::to_string(seq_before));
  soap::Envelope events_resp = proxy.call_action(
      rp_ns + "/GetResourceProperty", std::move(events_req));
  const xml::Element* events_el = events_resp.payload()->child(t("Events"));
  ASSERT_NE(events_el, nullptr);
  bool saw_alert_event = false;
  for (const xml::Element* ev : events_el->child_elements()) {
    if (ev->attr("component") == "telemetry.monitor" &&
        ev->text() == "alert fired") {
      saw_alert_event = true;
      EXPECT_GT(std::stoull(std::string(*ev->attr("seq"))), seq_before);
    }
  }
  EXPECT_TRUE(saw_alert_event);

  // The app's spend was attributed (untagged in-process traffic -> anon).
  auto anon = fx.costs.tenant("anon");
  ASSERT_TRUE(anon.has_value());
  EXPECT_GT(anon->total.requests, 100u);
  EXPECT_GT(anon->total.faults, 70u);

  // Phase 3: recovery. The short window clears; exactly one clearing
  // transition is published — edge-triggered in both directions — and
  // logged at Info, not as a warning.
  std::uint64_t warns_before_recovery = EventLog::global().count(Level::kWarn);
  std::uint64_t seq_before_recovery = EventLog::global().last_seq();
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) fx.good_request();
    fx.clock.advance(1000);
    fx.producer->tick();
  }
  EXPECT_EQ(fx.producer->alerts_fired(), 2u);
  EXPECT_EQ(fx.wsn_monitor.alert_count(), 2u);
  EXPECT_EQ(fx.wse_monitor.alert_count(), 2u);
  EXPECT_FALSE(fx.slo.status()[0].firing);
  EXPECT_EQ(EventLog::global().count(Level::kWarn), warns_before_recovery);
  int recoveries = 0;
  for (const Event& e : EventLog::global().events_since(seq_before_recovery)) {
    if (e.component == "telemetry.monitor" && e.message == "alert recovered" &&
        e.level == Level::kInfo) {
      ++recoveries;
    }
  }
  EXPECT_EQ(recoveries, 1);
}

}  // namespace
}  // namespace gs::telemetry
