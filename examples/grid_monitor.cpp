// Grid monitoring: two containers on the virtual fabric, each publishing
// its own telemetry over a different stack — WS-Notification from one,
// WS-Eventing from the other — into a MonitorConsumer per stack. The
// monitoring traffic itself rides the delivery queues and retry machinery,
// including through an injected 20%-drop route. Each container's alerts
// come from one-tick threshold objectives judged on its sampled series.
//
// On exit the run dumps a Chrome trace (open chrome://tracing or
// https://ui.perfetto.dev and load the printed path) plus the event log.
//
//   $ ./example_grid_monitor
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "container/container.hpp"
#include "net/retry.hpp"
#include "net/virtual_network.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/export.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"
#include "wse/service.hpp"
#include "wsn/consumer.hpp"
#include "wsn/producer.hpp"

using namespace gs;

namespace {

void print_health_table(const char* stack,
                        const telemetry::MonitorConsumer& monitor) {
  for (const auto& state : monitor.states()) {
    std::printf("  [%s] %-22s seq=%llu snapshots=%llu alerts=%llu%s%s\n",
                stack, state.producer.c_str(),
                static_cast<unsigned long long>(state.last_seq),
                static_cast<unsigned long long>(state.snapshots),
                static_cast<unsigned long long>(state.alerts),
                state.last_alert.empty() ? "" : " last_alert=",
                state.last_alert.c_str());
    for (const auto& [name, total] : state.counter_totals) {
      std::printf("        %-32s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(total));
    }
    for (const auto& [name, p99] : state.histogram_p99_us) {
      std::printf("        %-32s p99=%.1fus\n", name.c_str(), p99);
    }
  }
}

}  // namespace

int main() {
  std::printf("== Grid monitoring over both stacks ==\n\n");

  common::ManualClock clock(1000);
  net::VirtualNetwork net;
  net::VirtualCaller caller(net, {});
  telemetry::MetricsRegistry registry_a;  // container A's metrics
  telemetry::MetricsRegistry registry_b;  // container B's metrics

  // Monitoring deliveries retry through injected faults; the schedule is
  // simulated against the manual clock so the run is instant.
  net::RetryPolicy retry{
      .max_attempts = 8, .base_delay_ms = 1, .jitter = 0.0, .seed = 7};

  // --- container A publishes over WS-Notification --------------------------
  xmldb::XmlDatabase db(std::make_unique<xmldb::MemoryBackend>(), {});
  container::Container container_a({.clock = &clock});
  wsrf::ResourceHome subs(db, "subs", &container_a.lifetime());
  wsn::SubscriptionManagerService manager(subs, "http://grid-a/Subscriptions");
  container::Service source_service("Source");
  net::VirtualCaller wsn_raw(net, {.keep_alive = false});
  net::RetryingCaller wsn_sink(wsn_raw, retry, &clock, [](common::TimeMs) {});
  wsn::NotificationProducer wsn_producer(
      {&wsn_sink, "http://grid-a/Source", &manager, &clock},
      telemetry::monitor_topics());
  wsn_producer.register_into(source_service);
  container_a.deploy("/Source", source_service);
  container_a.deploy("/Subscriptions", manager);
  net.bind("grid-a", container_a);

  // --- container B publishes over WS-Eventing ------------------------------
  container::Container container_b({.clock = &clock});
  wse::SubscriptionStore store;
  wse::WseSubscriptionManagerService wse_manager(store, "http://grid-b/Subs",
                                                 clock);
  wse::EventSourceService events("Events", store, wse_manager, clock);
  net::VirtualCaller wse_raw(net, {.transport = net::TransportKind::kSoapTcp});
  net::RetryingCaller wse_sink(wse_raw, retry, &clock, [](common::TimeMs) {});
  wse::NotificationManager notifier(store, wse_sink, clock);
  container_b.deploy("/Events", events);
  container_b.deploy("/Subs", wse_manager);
  net.bind("grid-b", container_b);

  // --- one MonitorConsumer per stack, each behind a lossy route ------------
  telemetry::MonitorConsumer ops_wsn;
  telemetry::MonitorConsumer ops_wse;
  net.bind("ops-wsn", ops_wsn);
  net.bind("ops-wse", ops_wse);
  ops_wsn.subscribe_wsn(caller, "http://grid-a/Source", "http://ops-wsn/sink");
  ops_wse.subscribe_wse(caller, "http://grid-b/Events", "http://ops-wse/sink");
  net.set_fault_policy("ops-wsn", {.drop_probability = 0.2, .seed = 42});
  net.set_fault_policy("ops-wse", {.drop_probability = 0.2, .seed = 43});
  std::printf("subscribed a MonitorConsumer per stack; both routes drop 20%%\n\n");

  // Each producer samples its registry into a series store every tick and
  // judges a one-tick threshold objective (0 ms windows: this tick's
  // point) on it: A's request rate, B's dispatch p99 in µs.
  telemetry::TimeSeriesStore series_a({.registry = &registry_a, .clock = &clock});
  telemetry::TimeSeriesStore series_b({.registry = &registry_b, .clock = &clock});
  telemetry::SloTracker slo_a(&series_a, &clock);
  telemetry::SloTracker slo_b(&series_b, &clock);
  slo_a.add_objective({.name = "request-surge",
                       .kind = telemetry::SloObjective::Kind::kThreshold,
                       .good_metric = {},
                       .bad_metrics = {},
                       .series = "app.requests",
                       .threshold = 100.0,
                       .short_window_ms = 0,
                       .long_window_ms = 0});
  slo_b.add_objective({.name = "slow-dispatch",
                       .kind = telemetry::SloObjective::Kind::kThreshold,
                       .good_metric = {},
                       .bad_metrics = {},
                       .series = "app.dispatch.p99",
                       .threshold = 5000.0,
                       .short_window_ms = 0,
                       .long_window_ms = 0});
  telemetry::MonitorProducer producer_a({.registry = &registry_a,
                                         .producer_address = "http://grid-a/Source",
                                         .wsn = &wsn_producer,
                                         .clock = &clock,
                                         .interval_ms = 1000,
                                         .series = &series_a,
                                         .slo = &slo_a});
  telemetry::MonitorProducer producer_b({.registry = &registry_b,
                                         .producer_address = "http://grid-b/Events",
                                         .wse = &notifier,
                                         .clock = &clock,
                                         .interval_ms = 1000,
                                         .series = &series_b,
                                         .slo = &slo_b});

  // --- simulate three monitoring intervals of grid activity ----------------
  for (int interval = 1; interval <= 3; ++interval) {
    telemetry::SpanScope span("interval.work", "example");
    // Container A serves a burst of requests; the third interval surges.
    registry_a.counter("app.requests").add(interval == 3 ? 250 : 40);
    // Container B's dispatch latency degrades over time.
    for (int i = 0; i < 50; ++i) {
      registry_b.histogram("app.dispatch").record(1000 * interval * (1 + i % 3));
    }
    clock.advance(1000);
    producer_a.poll();
    producer_b.poll();
    std::printf("after interval %d:\n", interval);
    print_health_table("wsn", ops_wsn);
    print_health_table("wse", ops_wse);
    std::printf("\n");
  }

  // --- exit: dump the Chrome trace + event log ------------------------------
  // Into the working directory: runs from different build trees must not
  // share a file.
  auto dir = std::filesystem::current_path();
  auto trace_path = dir / "grid_monitor.trace.json";
  auto events_path = dir / "grid_monitor.events.log";
  {
    std::ofstream out(trace_path);
    out << telemetry::export_chrome_trace(
        telemetry::TraceLog::global().snapshot());
  }
  {
    std::ofstream out(events_path);
    out << telemetry::EventLog::global().to_text();
  }
  std::printf("chrome trace written to %s\n", trace_path.c_str());
  std::printf("  (load it in chrome://tracing or https://ui.perfetto.dev)\n");
  std::printf("event log written to %s\n", events_path.c_str());
  std::printf("\nwarn events logged: %llu (injected faults, retries, alerts)\n",
              static_cast<unsigned long long>(
                  telemetry::EventLog::global().count(telemetry::Level::kWarn)));
  return 0;
}
