// Tests for the push-based monitoring layer: MonitorProducer snapshots and
// objective alerts delivered over BOTH stacks through a 30%-drop route, the
// Chrome trace export for a distributed gridbox request, and adopt_remote
// trace propagation across a brokered-notification hop.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "container/container.hpp"
#include "gridbox/clients.hpp"
#include "net/retry.hpp"
#include "net/tcp.hpp"
#include "net/virtual_network.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"
#include "wsn/broker.hpp"
#include "wsn/client.hpp"
#include "wsn/consumer.hpp"
#include "wsn/producer.hpp"
#include "wse/service.hpp"
#include "xml/writer.hpp"

namespace gs::telemetry {
namespace {

xml::QName app(const char* local) { return {"urn:app", local}; }

// ---------------------------------------------------------------------------
// Dual-stack monitoring fixture: one MonitorProducer publishing the same
// registry over wsn AND wse, one MonitorConsumer per stack, each reached
// through its own faulty route. The producer samples `series` and judges
// the objectives added to `slo` on every tick.
// ---------------------------------------------------------------------------

struct MonitorFixture {
  common::ManualClock clock{1000};
  net::VirtualNetwork net;
  MetricsRegistry registry;  // local: deltas independent of global activity
  TimeSeriesStore series{{.registry = &registry, .clock = &clock}};
  SloTracker slo{&series, &clock};

  // --- wsn producer side (container at "p") ---
  xmldb::XmlDatabase db{std::make_unique<xmldb::MemoryBackend>(), {}};
  container::Container wsn_container{{.clock = &clock}};
  wsrf::ResourceHome sub_home{db, "subs", &wsn_container.lifetime()};
  std::unique_ptr<wsn::SubscriptionManagerService> wsn_manager;
  std::unique_ptr<container::Service> source_service;
  std::unique_ptr<net::VirtualCaller> wsn_raw_sink;
  std::unique_ptr<net::RetryingCaller> wsn_sink;
  std::unique_ptr<wsn::NotificationProducer> wsn_producer;

  // --- wse producer side (container at "s") ---
  container::Container wse_container{{.clock = &clock}};
  wse::SubscriptionStore store;
  std::unique_ptr<wse::WseSubscriptionManagerService> wse_manager;
  std::unique_ptr<wse::EventSourceService> event_source;
  std::unique_ptr<net::VirtualCaller> wse_raw_sink;
  std::unique_ptr<net::RetryingCaller> wse_sink;
  std::unique_ptr<wse::NotificationManager> notifier;

  // --- consumers, one per stack, each behind a faulty route ---
  MonitorConsumer wsn_monitor;
  MonitorConsumer wse_monitor;
  std::unique_ptr<net::VirtualCaller> caller;  // subscription traffic

  std::unique_ptr<MonitorProducer> producer;

  MonitorFixture() {
    // Retries advance nothing and sleep nowhere: the schedule is simulated,
    // so recovery through the seeded drops is deterministic and instant.
    net::RetryPolicy retry{
        .max_attempts = 8, .base_delay_ms = 1, .jitter = 0.0, .seed = 11};
    caller =
        std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});

    wsn_manager = std::make_unique<wsn::SubscriptionManagerService>(
        sub_home, "http://p/Subscriptions");
    source_service = std::make_unique<container::Service>("Source");
    wsn_raw_sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.keep_alive = false});
    wsn_sink = std::make_unique<net::RetryingCaller>(*wsn_raw_sink, retry,
                                                     &clock,
                                                     [](common::TimeMs) {});
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
        store, "http://s/Subscriptions", clock);
    event_source = std::make_unique<wse::EventSourceService>(
        "Events", store, *wse_manager, clock);
    wse_raw_sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{
                 .transport = net::TransportKind::kSoapTcp});
    wse_sink = std::make_unique<net::RetryingCaller>(*wse_raw_sink, retry,
                                                     &clock,
                                                     [](common::TimeMs) {});
    notifier = std::make_unique<wse::NotificationManager>(store, *wse_sink,
                                                          clock);
    wse_container.deploy("/Events", *event_source);
    wse_container.deploy("/Subscriptions", *wse_manager);

    net.bind("p", wsn_container);
    net.bind("s", wse_container);
    net.bind("cw", wsn_monitor);
    net.bind("ce", wse_monitor);

    producer = std::make_unique<MonitorProducer>(MonitorProducer::Config{
        .registry = &registry,
        .producer_address = "http://p/Source",
        .wsn = wsn_producer.get(),
        .wse = notifier.get(),
        .clock = &clock,
        .interval_ms = 1000,
        .series = &series,
        .slo = &slo,
    });
  }

  void subscribe_both() {
    wsn_monitor.subscribe_wsn(*caller, "http://p/Source", "http://cw/sink");
    wse_monitor.subscribe_wse(*caller, "http://s/Events", "http://ce/sink");
  }
};

// The issue's acceptance scenario: across routes dropping 30% of exchanges
// (seeded, deterministic), a MonitorConsumer on each stack still receives
// every snapshot and exactly one fire and one recovery of a one-tick
// threshold objective — monitoring traffic rides the same retry machinery
// as application traffic.
TEST(Monitor, EachStackDeliversSnapshotsAndOneAlertThroughFaultyRoute) {
  MonitorFixture fx;
  fx.subscribe_both();
  fx.net.set_fault_policy("cw", {.drop_probability = 0.3, .seed = 1234});
  fx.net.set_fault_policy("ce", {.drop_probability = 0.3, .seed = 4321});

  fx.slo.add_objective({.name = "high-request-rate",
                        .kind = SloObjective::Kind::kThreshold,
                        .good_metric = {},
                        .bad_metrics = {},
                        .series = "app.requests",
                        .threshold = 10.0,
                        .short_window_ms = 0,
                        .long_window_ms = 0});

  std::uint64_t warns_before = EventLog::global().count(Level::kWarn);

  // One tick per second, so the store's counter rate is the tick's delta.
  Counter& requests = fx.registry.counter("app.requests");
  auto tick = [&] {
    fx.clock.advance(1000);
    fx.producer->tick();
  };
  tick();  // first sample: no rate yet, quiet
  requests.add(5);
  tick();  // 5/s: under threshold
  requests.add(20);
  tick();  // 20/s: breach -> fires
  requests.add(20);
  tick();  // 20/s: still breached, latched -> no alert
  requests.add(2);
  tick();  // 2/s: recovers -> the recovery alert

  EXPECT_EQ(fx.producer->snapshots_published(), 5u);
  EXPECT_EQ(fx.producer->alerts_fired(), 2u);

  for (MonitorConsumer* monitor : {&fx.wsn_monitor, &fx.wse_monitor}) {
    EXPECT_TRUE(monitor->wait_for_snapshots(3, 0));
    EXPECT_EQ(monitor->snapshot_count(), 5u);
    EXPECT_EQ(monitor->alert_count(), 2u);
    auto state = monitor->state_for("http://p/Source");
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(state->last_seq, 5u);
    EXPECT_EQ(state->last_alert, "slo:high-request-rate");
    EXPECT_EQ(state->counter_totals.at("app.requests"), 47u);
  }
  // Each consumer saw its own stack's framing, never the other's.
  EXPECT_GT(fx.wsn_monitor.state_for("http://p/Source")->via_wsn, 0u);
  EXPECT_EQ(fx.wsn_monitor.state_for("http://p/Source")->via_wse, 0u);
  EXPECT_GT(fx.wse_monitor.state_for("http://p/Source")->via_wse, 0u);
  EXPECT_EQ(fx.wse_monitor.state_for("http://p/Source")->via_wsn, 0u);

  // The alert, its recovery and the injected faults all landed in the
  // event log.
  EXPECT_GT(EventLog::global().count(Level::kWarn), warns_before);
  bool saw_alert = false, saw_recovery = false, saw_fault = false;
  for (const Event& e : EventLog::global().snapshot()) {
    if (e.component == "telemetry.monitor" && e.message == "alert fired") {
      saw_alert = true;
    }
    if (e.component == "telemetry.monitor" && e.message == "alert recovered") {
      saw_recovery = e.level == Level::kInfo;
    }
    if (e.component == "net.fabric" && e.message == "injected fault") {
      saw_fault = true;
    }
  }
  EXPECT_TRUE(saw_alert);
  EXPECT_TRUE(saw_recovery);
  EXPECT_TRUE(saw_fault);
}

TEST(Monitor, PollHonorsIntervalAndStatesListsProducers) {
  MonitorFixture fx;
  fx.subscribe_both();

  EXPECT_TRUE(fx.producer->poll());   // first cycle always runs
  EXPECT_FALSE(fx.producer->poll());  // interval not yet elapsed
  fx.clock.advance(1000);
  EXPECT_TRUE(fx.producer->poll());

  EXPECT_EQ(fx.wsn_monitor.states().size(), 1u);
  EXPECT_EQ(fx.wsn_monitor.states()[0].producer, "http://p/Source");
  EXPECT_EQ(fx.wsn_monitor.snapshot_count(), 2u);
  EXPECT_EQ(fx.wse_monitor.snapshot_count(), 2u);
}

// Records the octets of every delivered payload, then hands the message to
// a real consumer.
class CapturingConsumer final : public net::Endpoint {
 public:
  MonitorConsumer consumer;
  std::vector<std::string> payloads;

  net::HttpResponse handle(const net::HttpRequest& request) override {
    soap::Envelope env = soap::Envelope::from_xml(request.body);
    if (const xml::Element* payload = env.payload()) {
      payloads.push_back(xml::write(*payload));
    }
    return consumer.handle(request);
  }
};

// One ManualClock tick publishes a snapshot and the firing alerts of a
// one-tick threshold objective and an availability objective; their
// octets are wire contract for every consumer.
TEST(Monitor, SnapshotAndAlertOctetsArePinned) {
  MonitorFixture fx;
  CapturingConsumer cap;
  fx.net.bind("cap", cap);
  cap.consumer.subscribe_wse(*fx.caller, "http://s/Events", "http://cap/sink");

  TimeSeriesConfig series_config;
  series_config.registry = &fx.registry;
  series_config.clock = &fx.clock;
  TimeSeriesStore series(series_config);
  SloTracker slo(&series, &fx.clock);
  slo.add_objective({.name = "high-request-rate",
                     .kind = SloObjective::Kind::kThreshold,
                     .good_metric = {},
                     .bad_metrics = {},
                     .series = "app.requests",
                     .threshold = 10.0,
                     .short_window_ms = 0,
                     .long_window_ms = 0});
  SloObjective availability;
  availability.name = "availability";
  availability.good_metric = "svc.ok";
  availability.bad_metrics = {"svc.err"};
  availability.target = 0.9;
  availability.short_window_ms = 3000;
  availability.long_window_ms = 10'000;
  slo.add_objective(availability);
  for (int s = 1; s <= 10; ++s) {
    series.ingest("svc.ok", s * 1000, 10.0);
    series.ingest("svc.err", s * 1000, 10.0);
  }
  // The store rates counters from its second sample on: prime it one
  // second before the tick, so the tick's point is 20 requests/s.
  fx.clock.set(9'000);
  series.sample();
  fx.clock.set(10'000);

  fx.registry.counter("app.requests").add(20);
  fx.registry.gauge("app.depth").set(4);
  for (std::uint64_t us : {1, 5, 100}) {
    fx.registry.histogram("app.latency_us").record(us);
  }
  MonitorProducer producer({.registry = &fx.registry,
                            .producer_address = "http://p/Source",
                            .wse = fx.notifier.get(),
                            .clock = &fx.clock,
                            .series = &series,
                            .slo = &slo});
  producer.tick();

  ASSERT_EQ(cap.payloads.size(), 3u);
  EXPECT_EQ(cap.payloads[0],
            R"(<t:TelemetrySnapshot xmlns:t="http://gridstacks.dev/telemetry")"
            R"( producer="http://p/Source" seq="1" ts_ms="10000">)"
            R"(<t:Counter name="app.requests" total="20">20</t:Counter>)"
            R"(<t:Gauge name="app.depth">4</t:Gauge>)"
            R"(<t:Histogram name="app.latency_us" count="3" sum_us="106")"
            R"( min_us="1" max_us="100" p50_us="8.0" p90_us="128.0")"
            R"( p99_us="128.0"/></t:TelemetrySnapshot>)");
  EXPECT_EQ(cap.payloads[1],
            R"(<t:Alert xmlns:t="http://gridstacks.dev/telemetry")"
            R"( producer="http://p/Source" rule="slo:high-request-rate")"
            R"( metric="slo.high-request-rate.burn" value="1000.0")"
            R"( threshold="1.0" firing="true">slo 'high-request-rate')"
            R"( burning: burn short=1000.00 long=1000.00 threshold=1.00)"
            R"(</t:Alert>)");
  EXPECT_EQ(cap.payloads[2],
            R"(<t:Alert xmlns:t="http://gridstacks.dev/telemetry")"
            R"( producer="http://p/Source" rule="slo:availability")"
            R"( metric="slo.availability.burn" value="5.0" threshold="1.0")"
            R"( firing="true">slo 'availability' burning: burn short=5.00)"
            R"( long=5.00 threshold=1.00</t:Alert>)");
  EXPECT_EQ(cap.consumer.snapshot_count(), 1u);
  EXPECT_EQ(cap.consumer.alert_count(), 2u);
}

// An alert's threshold attribute is the burn its objective was judged
// against, not a constant.
TEST(Monitor, AlertThresholdIsTheObjectivesBurnThreshold) {
  MonitorFixture fx;
  CapturingConsumer cap;
  fx.net.bind("cap", cap);
  cap.consumer.subscribe_wse(*fx.caller, "http://s/Events", "http://cap/sink");
  fx.slo.add_objective({.name = "availability",
                        .good_metric = "svc.ok",
                        .bad_metrics = {"svc.err"},
                        .series = {},
                        .target = 0.9,
                        .short_window_ms = 3000,
                        .long_window_ms = 10'000,
                        .burn_threshold = 2.0});
  for (int s = 1; s <= 10; ++s) {
    fx.series.ingest("svc.ok", s * 1000, 10.0);
    fx.series.ingest("svc.err", s * 1000, 10.0);
  }
  fx.clock.set(10'000);
  fx.producer->tick();

  ASSERT_EQ(cap.payloads.size(), 2u);  // the snapshot, then the alert
  EXPECT_NE(cap.payloads[1].find(R"( rule="slo:availability")"
                                 R"( metric="slo.availability.burn")"
                                 R"( value="5.0" threshold="2.0")"
                                 R"( firing="true">)"),
            std::string::npos)
      << cap.payloads[1];
}

// Reads 1 ms later on every now(), as a real clock moves between reads.
class SteppingClock final : public common::Clock {
 public:
  explicit SteppingClock(common::TimeMs start) : next_(start) {}
  common::TimeMs now() const override { return next_++; }

 private:
  mutable std::atomic<common::TimeMs> next_;
};

// A 0 ms window holds only the point sampled at its instant, so the
// producer judges objectives at the instant the store stamped — a second
// clock read would find the window empty and never fire.
TEST(Monitor, OneTickThresholdObjectiveJudgesTheSampledInstant) {
  SteppingClock clock(1000);
  MetricsRegistry registry;
  TimeSeriesStore series({.registry = &registry, .clock = &clock});
  SloTracker slo(&series, &clock);
  slo.add_objective({.name = "high-request-rate",
                     .kind = SloObjective::Kind::kThreshold,
                     .good_metric = {},
                     .bad_metrics = {},
                     .series = "app.requests",
                     .threshold = 10.0,
                     .short_window_ms = 0,
                     .long_window_ms = 0});
  MonitorProducer producer({.registry = &registry,
                            .producer_address = "http://p/Source",
                            .clock = &clock,
                            .series = &series,
                            .slo = &slo});

  Counter& requests = registry.counter("app.requests");
  producer.tick();  // first sample: the store's counter baseline
  requests.add(20);
  producer.tick();  // 20 requests within a few ms: far above 10/s
  EXPECT_EQ(producer.alerts_fired(), 1u);
  EXPECT_TRUE(slo.status()[0].firing);
}

// The consumer is a network endpoint: numbers in a posted snapshot are read
// strictly. A snapshot with a malformed seq or ts_ms is acknowledged and
// dropped; a malformed metric element is skipped.
TEST(Monitor, ConsumerRejectsMalformedNumbers) {
  MonitorConsumer consumer;
  auto post = [&](const std::string& snapshot) {
    net::HttpRequest request;
    request.method = "POST";
    request.path = "/sink";
    request.body = "<s:Envelope xmlns:s=\"http://www.w3.org/2003/05/soap-envelope\">"
                   "<s:Body>" + snapshot + "</s:Body></s:Envelope>";
    return consumer.handle(request).status;
  };
  const std::string open =
      "<t:TelemetrySnapshot xmlns:t=\"http://gridstacks.dev/telemetry\" "
      "producer=\"p\" ";
  ASSERT_EQ(post(open + "seq=\"1\" ts_ms=\"1000\">"
                 "<t:Counter name=\"c\" total=\"5\">5</t:Counter>"
                 "<t:Gauge name=\"g\">3</t:Gauge>"
                 "<t:Histogram name=\"h\" count=\"1\" p99_us=\"2.0\"/>"
                 "</t:TelemetrySnapshot>"),
            200);

  EXPECT_EQ(post(open + "seq=\"7junk\" ts_ms=\"2000\"/>"), 200);
  EXPECT_EQ(post(open + "seq=\"2\" ts_ms=\"2000\">"
                 "<t:Counter name=\"c\" total=\"-1\">1</t:Counter>"
                 "<t:Gauge name=\"g\">12abc</t:Gauge>"
                 "<t:Histogram name=\"h\" count=\"1\" p99_us=\"1e999\"/>"
                 "</t:TelemetrySnapshot>"),
            200);

  auto state = consumer.state_for("p");
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->last_seq, 2u);
  EXPECT_EQ(state->snapshots, 2u);
  EXPECT_EQ(state->counter_totals.at("c"), 5u);
  EXPECT_EQ(state->gauges.at("g"), 3);
  EXPECT_EQ(state->histogram_p99_us.at("h"), 2.0);
  EXPECT_EQ(consumer.snapshot_count(), 2u);
}

// ---------------------------------------------------------------------------
// A minimal JSON reader — enough to verify the Chrome trace export really
// parses, without hand-waving over string containment.
// ---------------------------------------------------------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json& at(const std::string& key) const { return object.at(key); }
};

struct JsonParser {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }
  char peek() {
    skip_ws();
    if (pos >= text.size()) throw std::runtime_error("unexpected end of JSON");
    return text[pos];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos));
    }
    ++pos;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't': return parse_literal("true", Json::Kind::kBool, true);
      case 'f': return parse_literal("false", Json::Kind::kBool, false);
      case 'n': return parse_literal("null", Json::Kind::kNull, false);
      default: return parse_number();
    }
  }

  Json parse_literal(const char* word, Json::Kind kind, bool boolean) {
    if (text.compare(pos, std::strlen(word), word) != 0) {
      throw std::runtime_error("bad literal");
    }
    pos += std::strlen(word);
    Json out;
    out.kind = kind;
    out.boolean = boolean;
    return out;
  }

  Json parse_number() {
    std::size_t end = pos;
    while (end < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[end])) ||
            std::strchr("+-.eE", text[end]))) {
      ++end;
    }
    Json out;
    out.kind = Json::Kind::kNumber;
    out.number = std::stod(text.substr(pos, end - pos));
    pos = end;
    return out;
  }

  Json parse_string() {
    expect('"');
    Json out;
    out.kind = Json::Kind::kString;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') {
        ++pos;
        if (pos >= text.size()) throw std::runtime_error("bad escape");
        switch (text[pos]) {
          case 'n': out.string += '\n'; break;
          case 'r': out.string += '\r'; break;
          case 't': out.string += '\t'; break;
          case 'u': {
            unsigned code = std::stoul(text.substr(pos + 1, 4), nullptr, 16);
            out.string += static_cast<char>(code);  // BMP controls only
            pos += 4;
            break;
          }
          default: out.string += text[pos];
        }
        ++pos;
      } else {
        out.string += text[pos++];
      }
    }
    expect('"');
    return out;
  }

  Json parse_array() {
    expect('[');
    Json out;
    out.kind = Json::Kind::kArray;
    if (peek() == ']') { ++pos; return out; }
    for (;;) {
      out.array.push_back(parse_value());
      if (peek() == ',') { ++pos; continue; }
      expect(']');
      return out;
    }
  }

  Json parse_object() {
    expect('{');
    Json out;
    out.kind = Json::Kind::kObject;
    if (peek() == '}') { ++pos; return out; }
    for (;;) {
      Json key = parse_string();
      expect(':');
      out.object.emplace(key.string, parse_value());
      if (peek() == ',') { ++pos; continue; }
      expect('}');
      return out;
    }
  }
};

Json parse_json(const std::string& text) {
  JsonParser parser{text};
  Json value = parser.parse_value();
  parser.skip_ws();
  if (parser.pos != text.size()) throw std::runtime_error("trailing JSON");
  return value;
}

std::string hex_id(std::uint64_t id) {
  std::ostringstream out;
  out << std::hex << id;
  return out.str();
}

std::filesystem::path temp_dir(const std::string& tag) {
  auto p = std::filesystem::temp_directory_path() / ("gs-monitor-" + tag);
  std::filesystem::remove_all(p);
  return p;
}

// The issue's other acceptance scenario: a distributed gridbox request —
// client, central container, and execution host each contributing spans —
// exported as Chrome trace-event JSON that parses, spreads the layers over
// at least two process ids, and whose span/parent args agree with the
// TraceLog's own parentage.
TEST(Monitor, ChromeTraceOfDistributedGridboxRequestMatchesTraceLog) {
  const std::string admin_dn = "CN=admin,O=VO";
  const std::string alice_dn = "CN=alice,O=VO";
  common::ManualClock clock{1'000'000};
  net::VirtualNetwork net;
  net::VirtualCaller caller(net, {});
  net::VirtualCaller outcalls(net, {});
  net::VirtualCaller sink(net, {.keep_alive = false});
  container::ContainerConfig cc;
  cc.clock = &clock;
  gridbox::WsrfGridDeployment grid({
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .central_container = cc,
      .outcall_caller = &outcalls,
      .outcall_security = {},
      .notification_sink = &sink,
      .central_base = "http://vo.example",
      .reservation_ttl_ms = 4LL * 3600 * 1000,
      .admin_dn = admin_dn,
  });
  grid.add_host({.host = "node1",
                 .base = "http://node1.example",
                 .backend = std::make_unique<xmldb::MemoryBackend>(),
                 .container = cc,
                 .file_root = temp_dir("wsrf-node1")});
  net.bind("vo.example", grid.central_container());
  net.bind("node1.example", grid.host_container("node1"));

  gridbox::WsrfAdminClient admin(caller, grid, {admin_dn, {}});
  admin.add_account(alice_dn, {gridbox::kPrivilegeSubmit});
  admin.register_site({"node1", grid.exec_address("node1"),
                       grid.data_address("node1"), {"blast"}});

  std::uint64_t trace_id;
  {
    SpanScope root("test.gridbox", "test");
    trace_id = root.context().trace_id;
    gridbox::WsrfUserClient alice(caller, grid, {alice_dn, {}});
    auto sites = alice.get_available_resources("blast");
    ASSERT_EQ(sites.size(), 1u);
    alice.make_reservation("node1");
  }

  std::vector<SpanRecord> spans = TraceLog::global().spans_for(trace_id);
  ASSERT_GE(spans.size(), 3u);

  Json doc = parse_json(export_chrome_trace(spans));
  ASSERT_EQ(doc.kind, Json::Kind::kObject);
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, Json::Kind::kArray);

  // Layers spread over at least two Chrome processes, each named.
  std::set<int> pids;
  std::set<int> named_pids;
  std::map<std::string, std::string> exported_parent;  // span hex -> parent hex
  for (const Json& event : events.array) {
    const std::string& ph = event.at("ph").string;
    if (ph == "M") {
      EXPECT_EQ(event.at("name").string, "process_name");
      named_pids.insert(static_cast<int>(event.at("pid").number));
      continue;
    }
    ASSERT_EQ(ph, "X");
    pids.insert(static_cast<int>(event.at("pid").number));
    const Json& args = event.at("args");
    EXPECT_EQ(args.at("trace").string, hex_id(trace_id));
    exported_parent[args.at("span").string] = args.at("parent").string;
  }
  EXPECT_GE(pids.size(), 2u);
  EXPECT_EQ(named_pids, pids);

  // Every TraceLog span appears exactly once, with its true parent.
  ASSERT_EQ(exported_parent.size(), spans.size());
  for (const SpanRecord& span : spans) {
    auto it = exported_parent.find(hex_id(span.span_id));
    ASSERT_NE(it, exported_parent.end()) << span.name;
    EXPECT_EQ(it->second, hex_id(span.parent_span_id)) << span.name;
  }

  // And the spans form one tree: every span but one has its parent among
  // the retained spans, and that one is the test span itself, a root.
  std::set<std::uint64_t> span_ids;
  for (const SpanRecord& span : spans) span_ids.insert(span.span_id);
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& span : spans) {
    if (!span_ids.contains(span.parent_span_id)) roots.push_back(&span);
  }
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->name, "test.gridbox");
  EXPECT_EQ(roots[0]->parent_span_id, 0u);
}

// ---------------------------------------------------------------------------
// adopt_remote across a brokered hop: the publisher's notification crosses a
// REAL socket to the broker (whose worker thread starts a provisional trace,
// then re-roots onto the carried context), and the broker's re-publish to
// the consumer continues the same trace — one trace, three layers.
// ---------------------------------------------------------------------------

// The broker's TCP base URL is only known after the server binds; requests
// are forwarded to the container once it exists.
class ForwardingEndpoint final : public net::Endpoint {
 public:
  net::Endpoint* target = nullptr;
  net::HttpResponse handle(const net::HttpRequest& request) override {
    return target->handle(request);
  }
};

TEST(Monitor, AdoptRemoteJoinsBrokeredHopIntoOneTrace) {
  common::ManualClock clock{1000};
  net::VirtualNetwork net;

  // Publisher: a full wsn producer whose sink speaks real TCP (that is the
  // hop that exercises adopt_remote — in-process delivery shares the
  // thread-local context and never needs it).
  xmldb::XmlDatabase pub_db{std::make_unique<xmldb::MemoryBackend>(), {}};
  container::Container pub_container{{.clock = &clock}};
  wsrf::ResourceHome pub_subs{pub_db, "subs", &pub_container.lifetime()};
  wsn::SubscriptionManagerService pub_manager(pub_subs,
                                              "http://p/Subscriptions");
  container::Service source_service("Source");
  net::TcpSoapCaller tcp_sink;
  wsn::TopicNamespace pub_topics;
  pub_topics.add("job/done");
  wsn::NotificationProducer publisher(
      wsn::NotificationProducer::Config{.sink_caller = &tcp_sink,
                                        .producer_address = "http://p/Source",
                                        .manager = &pub_manager,
                                        .clock = &clock},
      std::move(pub_topics));
  publisher.register_into(source_service);
  pub_container.deploy("/Source", source_service);
  pub_container.deploy("/Subscriptions", pub_manager);
  net.bind("p", pub_container);

  // Broker: behind a real HTTP server; its own outbound traffic (subscribe
  // back to the publisher, deliver to consumers) rides the virtual fabric.
  ForwardingEndpoint fwd;
  net::HttpServer server(fwd, 0, 2);
  net::VirtualCaller broker_caller(net, {});
  xmldb::XmlDatabase broker_db{std::make_unique<xmldb::MemoryBackend>(), {}};
  container::Container broker_container{{.clock = &clock}};
  wsrf::ResourceHome broker_subs{broker_db, "broker-subs",
                                 &broker_container.lifetime()};
  wsrf::ResourceHome registrations{broker_db, "registrations",
                                   &broker_container.lifetime()};
  wsn::SubscriptionManagerService broker_manager(
      broker_subs, server.base_url() + "/Subscriptions");
  wsn::TopicNamespace broker_topics;
  broker_topics.add("job/done");
  wsn::BrokerService broker(
      wsn::BrokerService::Config{&broker_caller, server.base_url() + "/Broker",
                                 &broker_manager, &clock},
      registrations, std::move(broker_topics));
  broker_container.deploy("/Broker", broker);
  broker_container.deploy("/Subscriptions", broker_manager);
  fwd.target = &broker_container;

  wsn::NotificationConsumer consumer;
  net.bind("bc", consumer);

  // Consumer subscribes at the broker; the broker registers the publisher
  // (subscribing back to it over the virtual fabric).
  net::TcpSoapCaller wire;
  wsn::NotificationProducerProxy broker_sub(
      wire, soap::EndpointReference(server.base_url() + "/Broker"));
  wsn::Filter filter;
  filter.set_topic(wsn::TopicExpression::parse(
      wsn::TopicExpression::Dialect::kConcrete, "job/done"));
  broker_sub.subscribe(soap::EndpointReference("http://bc/sink"), filter);
  wsn::BrokerProxy broker_proxy(
      wire, soap::EndpointReference(server.base_url() + "/Broker"));
  broker_proxy.register_publisher(soap::EndpointReference("http://p/Source"),
                                  {"job/done"}, false);

  std::uint64_t trace_id;
  {
    SpanScope root("test.publish", "test");
    trace_id = root.context().trace_id;
    xml::Element ev(app("Event"));
    ev.append_element(app("code")).set_text("1");
    ASSERT_EQ(publisher.notify("job/done", ev), 1u);  // to the broker
  }
  ASSERT_TRUE(consumer.wait_for(1, 2000));

  // One trace spanning publisher, broker, and consumer-delivery layers.
  std::vector<SpanRecord> spans = TraceLog::global().spans_for(trace_id);
  std::set<std::string> layers;
  std::set<std::string> names;
  for (const SpanRecord& s : spans) {
    layers.insert(s.layer);
    names.insert(s.name);
  }
  EXPECT_GE(layers.size(), 3u) << "layers crossed: " << layers.size();
  EXPECT_TRUE(names.contains("wsn.deliver"));       // both delivery hops
  EXPECT_TRUE(names.contains("http.receive"));      // broker's server side
  EXPECT_TRUE(names.contains("container.dispatch"));

  // The broker-side spans were re-rooted onto the publisher's trace: every
  // span's parent is another retained span of this trace (or the root).
  std::set<std::uint64_t> ids;
  for (const SpanRecord& s : spans) ids.insert(s.span_id);
  std::size_t roots = 0;
  for (const SpanRecord& s : spans) {
    if (s.parent_span_id == 0 || !ids.contains(s.parent_span_id)) {
      ++roots;
      EXPECT_EQ(s.name, "test.publish");
    }
  }
  EXPECT_EQ(roots, 1u);
}

}  // namespace
}  // namespace gs::telemetry
