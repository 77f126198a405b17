#include "harness.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "telemetry/event_log.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace.hpp"

namespace gs::bench {

// ---------------------------------------------------------------------------
// BenchTelemetry
// ---------------------------------------------------------------------------

namespace {

using telemetry::json_escape;

std::string json_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

BenchTelemetry& BenchTelemetry::instance() {
  static BenchTelemetry t;
  return t;
}

void BenchTelemetry::sample_series() {
  std::lock_guard lock(mu_);
  if (!series_) {
    telemetry::TimeSeriesConfig config;
    config.interval_ms = 250;  // benches are seconds long; keep points dense
    config.raw_capacity = 4096;
    series_ = std::make_unique<telemetry::TimeSeriesStore>(config);
  }
  series_->poll();  // rate-limited: back-to-back benches share an interval
}

void BenchTelemetry::add(std::string bench_name, std::int64_t iterations,
                         telemetry::MetricsSnapshot delta, double ops_per_sec,
                         std::map<std::string, double> extras) {
  std::lock_guard lock(mu_);
  // google-benchmark calls the function several times (estimation runs,
  // then the measured one, last); keep only the final run per benchmark.
  for (Record& r : records_) {
    if (r.name == bench_name) {
      r.iterations = iterations;
      r.delta = std::move(delta);
      r.ops_per_sec = ops_per_sec;
      r.extras = std::move(extras);
      return;
    }
  }
  records_.push_back({std::move(bench_name), iterations, std::move(delta),
                      ops_per_sec, std::move(extras)});
}

void BenchTelemetry::write(const std::string& figure) const {
  std::lock_guard lock(mu_);
  std::string path = "BENCH_" + figure + ".json";
  std::ofstream out(path);
  out << "[\n";
  bool first_record = true;
  for (const Record& r : records_) {
    if (!first_record) out << ",\n";
    first_record = false;
    out << "  {\n    \"name\": \"" << json_escape(r.name) << "\",\n"
        << "    \"iterations\": " << r.iterations << ",\n";
    if (r.ops_per_sec > 0.0) {
      out << "    \"ops_per_sec\": " << json_double(r.ops_per_sec) << ",\n";
    }
    for (const auto& [name, value] : r.extras) {
      out << "    \"" << json_escape(name) << "\": " << json_double(value)
          << ",\n";
    }

    out << "    \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : r.delta.counters) {
      if (value == 0) continue;  // quiet metrics: noise in the report
      out << (first ? "" : ", ") << "\"" << json_escape(name)
          << "\": " << value;
      first = false;
    }
    out << "},\n";

    out << "    \"gauges\": {";
    first = true;
    for (const auto& [name, value] : r.delta.gauges) {
      out << (first ? "" : ", ") << "\"" << json_escape(name)
          << "\": " << value;
      first = false;
    }
    out << "},\n";

    out << "    \"histograms\": {";
    first = true;
    for (const auto& [name, h] : r.delta.histograms) {
      if (h.count == 0) continue;
      out << (first ? "" : ", ") << "\n      \"" << json_escape(name)
          << "\": {\"count\": " << h.count << ", \"sum_us\": " << h.sum_us
          << ", \"min_us\": " << h.min_us << ", \"max_us\": " << h.max_us
          << ", \"p50_us\": " << json_double(h.percentile(50))
          << ", \"p90_us\": " << json_double(h.percentile(90))
          << ", \"p99_us\": " << json_double(h.percentile(99)) << "}";
      first = false;
    }
    out << (first ? "" : "\n    ") << "}\n  }";
  }
  out << "\n]\n";
  std::printf("per-layer telemetry for %zu benchmarks written to %s\n",
              records_.size(), path.c_str());

  // Post-mortem artifacts for the same figure: whatever the global trace
  // ring still holds as a chrome://tracing file, and the structured event
  // log (faults, evictions, retries) as text.
  std::string trace_path = "BENCH_" + figure + ".trace.json";
  std::ofstream(trace_path)
      << telemetry::export_chrome_trace(telemetry::TraceLog::global().snapshot());
  std::string events_path = "BENCH_" + figure + ".events.log";
  std::ofstream(events_path) << telemetry::EventLog::global().to_text();
  std::printf("trace written to %s, event log to %s\n", trace_path.c_str(),
              events_path.c_str());

  // The run's own time-series window (sampled by run_with_telemetry):
  // rate/level/percentile points per metric, for plotting how the run
  // evolved rather than only its totals.
  if (series_) {
    std::string series_path = "BENCH_" + figure + ".series.json";
    std::ofstream sout(series_path);
    sout << "{\n  \"interval_ms\": " << series_->interval_ms()
         << ",\n  \"series\": {";
    bool first = true;
    for (const std::string& name : series_->series_names()) {
      telemetry::TimeSeriesStore::Window window = series_->query(name);
      if (window.points.empty()) continue;
      sout << (first ? "" : ",") << "\n    \"" << json_escape(name)
           << "\": [";
      bool first_point = true;
      for (const telemetry::SeriesPoint& p : window.points) {
        sout << (first_point ? "" : ", ") << "[" << p.t_ms << ", "
             << json_double(p.value) << "]";
        first_point = false;
      }
      sout << "]";
      first = false;
    }
    sout << (first ? "" : "\n  ") << "}\n}\n";
    std::printf("time series written to %s\n", series_path.c_str());
  }
}

const char* stack_name(Stack stack) {
  return stack == Stack::kWsrf ? "WSRF.NET" : "WS-Transfer/WS-Eventing";
}

const char* security_name(Security security) {
  switch (security) {
    case Security::kNone: return "no security";
    case Security::kHttps: return "https";
    case Security::kX509: return "X.509 signing";
  }
  return "";
}

security::Credential Pki::issue(const std::string& dn) {
  return ca.issue(dn, 1024, rng, 0, std::numeric_limits<common::TimeMs>::max());
}

Pki& Pki::instance() {
  static Pki pki;
  return pki;
}

// ---------------------------------------------------------------------------
// CounterRig
// ---------------------------------------------------------------------------

struct CounterRig::Impl {
  Stack stack;
  Security security;
  net::VirtualNetwork net;
  std::unique_ptr<net::VirtualCaller> caller;
  std::unique_ptr<net::VirtualCaller> sink;
  std::unique_ptr<counter::WsrfCounterDeployment> wsrf;
  std::unique_ptr<counter::WstCounterDeployment> wst;
  wsn::NotificationConsumer consumer;

  std::unique_ptr<counter::WsrfCounterClient> wsrf_client;
  std::unique_ptr<counter::WstCounterClient> wst_client;
  // Fresh-resource slot for the create/destroy benchmark pair.
  std::unique_ptr<counter::WsrfCounterClient> wsrf_victim;
  std::unique_ptr<counter::WstCounterClient> wst_victim;
  // A separate counter subscribed only while the Notify benchmark runs,
  // so Set (no subscribers) and Notify (set + delivery) measure what the
  // paper measures.
  std::unique_ptr<counter::WsrfCounterClient> wsrf_notifier;
  std::unique_ptr<counter::WstCounterClient> wst_notifier;
  std::unique_ptr<wsn::SubscriptionProxy> wsrf_subscription;
  std::unique_ptr<wse::WseSubscriptionProxy> wst_subscription;
  container::ProxySecurity security_config;
  int set_value = 0;

  Impl(Stack stack_in, Security security_in, bool distributed,
       net::WireMeter& meter)
      : stack(stack_in),
        security(security_in),
        net(distributed ? net::NetworkProfile::distributed()
                        : net::NetworkProfile::colocated()) {
    Pki& pki = Pki::instance();

    net::VirtualCaller::Options caller_opts;
    caller_opts.meter = &meter;
    container::ContainerConfig cc;
    container::ProxySecurity& proxy_sec = security_config;
    switch (security) {
      case Security::kNone:
        break;
      case Security::kHttps:
        caller_opts.transport = net::TransportKind::kHttps;
        caller_opts.anchor = &pki.ca.root();
        cc.credential = &pki.service;
        break;
      case Security::kX509:
        cc.security = container::SecurityMode::kX509;
        cc.anchor = &pki.ca.root();
        cc.credential = &pki.service;
        proxy_sec = {&pki.user, &pki.ca.root(), &common::RealClock::instance()};
        break;
    }
    caller = std::make_unique<net::VirtualCaller>(net, caller_opts);

    std::string scheme = security == Security::kHttps ? "https" : "http";
    if (stack == Stack::kWsrf) {
      // WSRF.NET notification path: the clients' custom HTTP server, a new
      // connection per delivery.
      sink = std::make_unique<net::VirtualCaller>(
          net, net::VirtualCaller::Options{.keep_alive = false, .meter = &meter});
      auto root = std::filesystem::temp_directory_path() /
                  ("gs-bench-hello-wsrf-" + std::to_string(static_cast<int>(security)) +
                   (distributed ? "-dist" : "-colo"));
      std::filesystem::remove_all(root);
      wsrf = std::make_unique<counter::WsrfCounterDeployment>(
          counter::WsrfCounterDeployment::Params{
              .backend = std::make_unique<xmldb::FileBackend>(root),
              .write_through_cache = true,
              .container = cc,
              .notification_sink = sink.get(),
              .address_base = scheme + "://vo.example",
          });
      net.bind("vo.example", wsrf->container());
      wsrf_client = std::make_unique<counter::WsrfCounterClient>(
          *caller, wsrf->counter_address(), proxy_sec);
      wsrf_victim = std::make_unique<counter::WsrfCounterClient>(
          *caller, wsrf->counter_address(), proxy_sec);
      wsrf_notifier = std::make_unique<counter::WsrfCounterClient>(
          *caller, wsrf->counter_address(), proxy_sec);
      net.bind("client.example", consumer);
      wsrf_client->create();
      wsrf_notifier->create();
    } else {
      // Plumbwork Orange delivery: WSE SoapReceiver over persistent TCP.
      sink = std::make_unique<net::VirtualCaller>(
          net, net::VirtualCaller::Options{
                   .transport = net::TransportKind::kSoapTcp, .meter = &meter});
      auto root = std::filesystem::temp_directory_path() /
                  ("gs-bench-hello-wst-" + std::to_string(static_cast<int>(security)) +
                   (distributed ? "-dist" : "-colo"));
      std::filesystem::remove_all(root);
      wst = std::make_unique<counter::WstCounterDeployment>(
          counter::WstCounterDeployment::Params{
              .backend = std::make_unique<xmldb::FileBackend>(root),
              .container = cc,
              .notification_sink = sink.get(),
              .address_base = scheme + "://vo.example",
              .subscription_file = {},
          });
      net.bind("vo.example", wst->container());
      wst_client = std::make_unique<counter::WstCounterClient>(
          *caller, wst->counter_address(), wst->source_address(), proxy_sec);
      wst_victim = std::make_unique<counter::WstCounterClient>(
          *caller, wst->counter_address(), wst->source_address(), proxy_sec);
      wst_notifier = std::make_unique<counter::WstCounterClient>(
          *caller, wst->counter_address(), wst->source_address(), proxy_sec);
      net.bind("client.example", consumer);
      wst_client->create();
      wst_notifier->create();
    }
  }
};

CounterRig::CounterRig(Stack stack, Security security, bool distributed)
    : impl_(std::make_unique<Impl>(stack, security, distributed, meter_)) {}
CounterRig::~CounterRig() = default;

void CounterRig::op_get() {
  int v = impl_->stack == Stack::kWsrf ? impl_->wsrf_client->get()
                                       : impl_->wst_client->get();
  benchmark::DoNotOptimize(v);
}

void CounterRig::op_set() {
  ++impl_->set_value;
  if (impl_->stack == Stack::kWsrf) {
    impl_->wsrf_client->set(impl_->set_value);
  } else {
    impl_->wst_client->set(impl_->set_value);
  }
}

void CounterRig::op_create() {
  if (impl_->stack == Stack::kWsrf) {
    impl_->wsrf_victim->create();
  } else {
    impl_->wst_victim->create();
  }
}

void CounterRig::op_destroy() {
  // Destroys whatever counter the victim slot currently targets; the
  // destroy benchmark creates one per iteration outside the timed window.
  if (impl_->stack == Stack::kWsrf) {
    impl_->wsrf_victim->destroy();
  } else {
    impl_->wst_victim->remove();
  }
}

void CounterRig::subscribe_notifier() {
  soap::EndpointReference consumer_epr("http://client.example/s");
  if (impl_->stack == Stack::kWsrf) {
    impl_->wsrf_subscription = std::make_unique<wsn::SubscriptionProxy>(
        impl_->wsrf_notifier->subscribe(consumer_epr));
  } else {
    auto handle = impl_->wst_notifier->subscribe(consumer_epr);
    impl_->wst_subscription = std::make_unique<wse::WseSubscriptionProxy>(
        *impl_->caller, handle.manager, impl_->security_config);
  }
}

void CounterRig::unsubscribe_notifier() {
  if (impl_->wsrf_subscription) {
    impl_->wsrf_subscription->unsubscribe();
    impl_->wsrf_subscription.reset();
  }
  if (impl_->wst_subscription) {
    impl_->wst_subscription->unsubscribe();
    impl_->wst_subscription.reset();
  }
}

void CounterRig::op_notify() {
  size_t before = impl_->consumer.count();
  ++impl_->set_value;
  if (impl_->stack == Stack::kWsrf) {
    impl_->wsrf_notifier->set(impl_->set_value);
  } else {
    impl_->wst_notifier->set(impl_->set_value);
  }
  // Delivery is synchronous in-process; set returning implies receipt.
  if (impl_->consumer.count() <= before) {
    throw std::logic_error("notification was not delivered");
  }
}

// ---------------------------------------------------------------------------
// GridRig
// ---------------------------------------------------------------------------

struct GridRig::Impl {
  Stack stack;
  common::ManualClock clock{1'000'000};
  net::VirtualNetwork net;
  std::unique_ptr<net::VirtualCaller> caller;
  std::unique_ptr<net::VirtualCaller> outcalls;
  std::unique_ptr<net::VirtualCaller> sink;
  std::unique_ptr<gridbox::WsrfGridDeployment> wsrf;
  std::unique_ptr<gridbox::WstGridDeployment> wst;
  std::unique_ptr<gridbox::WsrfUserClient> wsrf_user;
  std::unique_ptr<gridbox::WstUserClient> wst_user;
  wsn::NotificationConsumer consumer;

  // Persistent per-rig state used by prep/cleanup phases.
  soap::EndpointReference wsrf_directory;
  soap::EndpointReference wsrf_reservation;
  bool wsrf_reserved = false;
  bool wst_reserved = false;
  int file_counter = 0;

  Impl(Stack stack_in, bool distributed, net::WireMeter& meter)
      : stack(stack_in),
        net(distributed ? net::NetworkProfile::distributed()
                        : net::NetworkProfile::colocated()) {
    Pki& pki = Pki::instance();
    container::ProxySecurity user_sec{&pki.user, &pki.ca.root(),
                                      &common::RealClock::instance()};
    container::ProxySecurity admin_sec{&pki.admin, &pki.ca.root(),
                                       &common::RealClock::instance()};
    container::ProxySecurity node_sec{&pki.node, &pki.ca.root(),
                                      &common::RealClock::instance()};
    container::ContainerConfig central_cc{container::SecurityMode::kX509,
                                          &pki.ca.root(), &pki.service, &clock};
    container::ContainerConfig node_cc{container::SecurityMode::kX509,
                                       &pki.ca.root(), &pki.node, &clock};

    caller = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.meter = &meter});
    outcalls = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.meter = &meter});

    auto file_root = std::filesystem::temp_directory_path() /
                     (stack == Stack::kWsrf ? "gs-bench-wsrf" : "gs-bench-wst");
    std::filesystem::remove_all(file_root);

    if (stack == Stack::kWsrf) {
      sink = std::make_unique<net::VirtualCaller>(
          net, net::VirtualCaller::Options{.keep_alive = false, .meter = &meter});
      auto central_root = file_root.string() + "-central";
      std::filesystem::remove_all(central_root);
      wsrf = std::make_unique<gridbox::WsrfGridDeployment>(
          gridbox::WsrfGridDeployment::Params{
              .backend = std::make_unique<xmldb::FileBackend>(central_root),
              .central_container = central_cc,
              .outcall_caller = outcalls.get(),
              .outcall_security = node_sec,
              .notification_sink = sink.get(),
              .central_base = "http://vo.example",
              .reservation_ttl_ms = 4LL * 3600 * 1000,
              .admin_dn = "CN=admin,O=VO",
          });
      wsrf->add_host({.host = "node1",
                      .base = "http://node1.example",
                      .backend = std::make_unique<xmldb::FileBackend>(
                          file_root.string() + "-db"),
                      .container = node_cc,
                      .file_root = file_root});
      net.bind("vo.example", wsrf->central_container());
      net.bind("node1.example", wsrf->host_container("node1"));
      gridbox::WsrfAdminClient admin(*caller, *wsrf,
                                     {"CN=admin,O=VO", admin_sec});
      admin.add_account("CN=alice,O=VO", {gridbox::kPrivilegeSubmit});
      admin.register_site({"node1", wsrf->exec_address("node1"),
                           wsrf->data_address("node1"), {"blast"}});
      wsrf_user = std::make_unique<gridbox::WsrfUserClient>(
          *caller, *wsrf, gridbox::ClientIdentity{"CN=alice,O=VO", user_sec});
      wsrf_directory = wsrf_user->create_directory(wsrf->data_address("node1"));
    } else {
      sink = std::make_unique<net::VirtualCaller>(
          net, net::VirtualCaller::Options{
                   .transport = net::TransportKind::kSoapTcp, .meter = &meter});
      auto central_root = file_root.string() + "-central";
      std::filesystem::remove_all(central_root);
      wst = std::make_unique<gridbox::WstGridDeployment>(
          gridbox::WstGridDeployment::Params{
              .backend = std::make_unique<xmldb::FileBackend>(central_root),
              .central_container = central_cc,
              .outcall_caller = outcalls.get(),
              .outcall_security = node_sec,
              .notification_sink = sink.get(),
              .central_base = "http://vo.example",
              .reservation_ttl_ms = 4LL * 3600 * 1000,
              .admin_dn = "CN=admin,O=VO",
          });
      wst->add_host({.host = "node1",
                     .base = "http://node1.example",
                     .backend = std::make_unique<xmldb::FileBackend>(
                         file_root.string() + "-db"),
                     .container = node_cc,
                     .file_root = file_root,
                     .subscription_file = {}});
      net.bind("vo.example", wst->central_container());
      net.bind("node1.example", wst->host_container("node1"));
      gridbox::WstAdminClient admin(*caller, *wst, {"CN=admin,O=VO", admin_sec});
      admin.add_account("CN=alice,O=VO", {gridbox::kPrivilegeSubmit});
      admin.register_site({"node1", wst->exec_address("node1"),
                           wst->data_address("node1"), {"blast"}});
      wst_user = std::make_unique<gridbox::WstUserClient>(
          *caller, *wst, gridbox::ClientIdentity{"CN=alice,O=VO", user_sec});
    }
    net.bind("user.example", consumer);
  }

  void ensure_reserved() {
    if (stack == Stack::kWsrf) {
      if (!wsrf_reserved) {
        wsrf_reservation = wsrf_user->make_reservation("node1");
        wsrf_reserved = true;
      }
    } else {
      if (!wst_reserved) {
        wst_user->make_reservation("node1");
        wst_reserved = true;
      }
    }
  }

  void release_reservation() {
    if (stack == Stack::kWsrf) {
      if (wsrf_reserved) {
        wsrf_user->destroy(wsrf_reservation);
        wsrf_reserved = false;
      }
    } else {
      if (wst_reserved) {
        wst_user->unreserve("node1");
        wst_reserved = false;
      }
    }
  }
};

GridRig::GridRig(Stack stack, bool distributed)
    : impl_(std::make_unique<Impl>(stack, distributed, meter_)) {}
GridRig::~GridRig() = default;

bool GridRig::has_unreserve() const { return impl_->stack == Stack::kWst; }

void GridRig::prep_get_available_resource() { impl_->release_reservation(); }

void GridRig::op_get_available_resource() {
  auto sites = impl_->stack == Stack::kWsrf
                   ? impl_->wsrf_user->get_available_resources("blast")
                   : impl_->wst_user->get_available_resources("blast");
  benchmark::DoNotOptimize(sites);
}

void GridRig::prep_make_reservation() { impl_->release_reservation(); }

void GridRig::op_make_reservation() { impl_->ensure_reserved(); }

void GridRig::prep_upload_file() { impl_->ensure_reserved(); }

void GridRig::op_upload_file() {
  std::string name = "bench-" + std::to_string(impl_->file_counter++) + ".dat";
  if (impl_->stack == Stack::kWsrf) {
    impl_->wsrf_user->upload(impl_->wsrf_directory, name, "benchmark payload");
  } else {
    impl_->wst_user->upload(impl_->wst->data_address("node1"), name,
                            "benchmark payload");
  }
}

void GridRig::prep_instantiate_job() {
  // Jobs claim (WSRF) or require (WST) a reservation; each iteration needs
  // a fresh one because the prior job claimed it.
  impl_->release_reservation();
  impl_->ensure_reserved();
}

void GridRig::op_instantiate_job() {
  if (impl_->stack == Stack::kWsrf) {
    soap::EndpointReference job = impl_->wsrf_user->start_job(
        impl_->wsrf->exec_address("node1"), "sim:duration=100000000,exit=0",
        impl_->wsrf_reservation, impl_->wsrf_directory);
    benchmark::DoNotOptimize(job);
  } else {
    soap::EndpointReference job = impl_->wst_user->start_job(
        impl_->wst->exec_address("node1"), "sim:duration=100000000,exit=0");
    benchmark::DoNotOptimize(job);
  }
}

void GridRig::post_instantiate_job() {
  // The WSRF reservation is now claimed by the (never-ending) benchmark
  // job; destroy it so the next iteration can mint a fresh one — otherwise
  // the single host stays reserved.
  if (impl_->stack == Stack::kWsrf) {
    impl_->wsrf_user->destroy(impl_->wsrf_reservation);
    impl_->wsrf_reserved = false;
  }
}

void GridRig::prep_delete_file() {
  prep_upload_file();
  op_upload_file();
}

void GridRig::op_delete_file() {
  std::string name = "bench-" + std::to_string(impl_->file_counter - 1) + ".dat";
  if (impl_->stack == Stack::kWsrf) {
    impl_->wsrf_user->delete_file(impl_->wsrf_directory, name);
  } else {
    impl_->wst_user->delete_file(impl_->wst->data_address("node1"), name);
  }
}

void GridRig::prep_unreserve_resource() { impl_->ensure_reserved(); }

void GridRig::op_unreserve_resource() {
  if (impl_->stack != Stack::kWst) {
    throw std::logic_error("unreserve is a WS-Transfer-only operation");
  }
  impl_->wst_user->unreserve("node1");
  impl_->wst_reserved = false;
}

}  // namespace gs::bench
