// Per-request bookkeeping, one call at a time: what every request pays the
// telemetry and lifetime layers before any parsing or serializing.
//
// A container request opens ~5 spans, records ~7 histogram samples, mints
// two MessageID UUIDs, runs one lifetime sweep, pins its service, charges
// the wire meter and (for a WSRF read) loads a cached document. Each of
// those calls takes well under a microsecond when nothing else runs, so
// end-to-end benches cannot resolve them; this bench times each call
// alone, at 1 and 2 threads. At 2 threads both threads share one instance
// (the global trace log, one histogram, one lifetime manager, one service
// registry, one network and wire meter, one database), as request threads
// do, so the difference between the rows is the cost of shared writes.
//
// The sweep case registers 512 never-expiring entries first: read_mostly's
// 256 WSRF counters per stack, each with a lifetime entry. The exchange
// case gives each thread its own VirtualCaller, as each perfbench client
// has, over one network and meter; its endpoint answers a fixed reply. The
// load case reads one of 256 cached documents per call, each thread
// walking its own sequence of ids.
//
// The two wal_get cases read the same 256 documents straight from a
// WalBackend over memory devices — what a WS-Transfer Get reaches through
// XmlDatabase::load_octets — so they size the engine's table mutex, the
// last lock both request threads write on that path. The _with_put case
// runs one more thread that rewrites those documents with put() for the
// whole case, so group-commit batch apply holds the same mutex.
//
// Hand-rolled main (one timed loop per case, median of 3 repetitions).
// Prints ns/call and writes BENCH_request_overhead.json with one record per
// (call, threads): ns_per_call and threads. Not gated.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "common/uuid.hpp"
#include "container/lifetime.hpp"
#include "container/registry.hpp"
#include "container/service.hpp"
#include "harness.hpp"
#include "net/virtual_network.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "xmldb/backend.hpp"
#include "xmldb/database.hpp"
#include "xmldb/log_device.hpp"
#include "xmldb/wal.hpp"

namespace {

using namespace gs;

struct Case {
  const char* name;
  long iterations;                    // per thread
  std::function<void()> call;
  /// Runs on its own thread, in a loop, for as long as the case is timed.
  std::function<void()> background = {};
};

/// Mean ns/call across `threads` threads that start together and each run
/// `c.iterations` calls.
double time_case(const Case& c, int threads) {
  std::barrier start(threads);
  std::vector<double> ns_per_call(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      c.call();  // first-use setup (thread ordinal, generator seeding)
      start.arrive_and_wait();
      auto t0 = std::chrono::steady_clock::now();
      for (long i = 0; i < c.iterations; ++i) c.call();
      auto elapsed = std::chrono::steady_clock::now() - t0;
      ns_per_call[t] =
          std::chrono::duration<double, std::nano>(elapsed).count() / c.iterations;
    });
  }
  for (auto& w : workers) w.join();
  double total = 0;
  for (double v : ns_per_call) total += v;
  return total / threads;
}

}  // namespace

int main() {
  telemetry::Histogram stage;
  common::ManualClock clock(0);
  container::LifetimeManager lifetime(clock);
  for (int i = 0; i < 512; ++i) {
    lifetime.schedule(container::LifetimeManager::kNever, [] {});
  }
  container::Service service("Counter");
  container::ServiceRegistry registry;
  registry.deploy("/wsrf/services/Counter", service);

  net::VirtualNetwork net;
  net::WireMeter meter;
  const std::string reply = soap::Envelope().to_xml();
  net::LambdaEndpoint endpoint(
      [&reply](const net::HttpRequest&) { return net::HttpResponse::ok(reply); });
  net.bind("echo.bench", endpoint);
  const soap::Envelope request;

  xmldb::XmlDatabase db(std::make_unique<xmldb::MemoryBackend>(),
                        {.write_through_cache = true});
  std::vector<std::string> ids;
  for (int i = 0; i < 256; ++i) {
    ids.push_back("counter-" + std::to_string(i));
    xml::Element doc(xml::QName("urn:bench", "Counter"));
    doc.set_text(std::to_string(i));
    db.store("Counter", ids.back(), doc);
  }

  xmldb::WalBackend wal(std::make_shared<xmldb::MemoryLogDevice>(),
                        std::make_shared<xmldb::MemoryLogDevice>());
  const std::string octets =
      "<n1:Counter xmlns:n1=\"http://gridstacks.dev/counter\">"
      "<n1:cv>42</n1:cv></n1:Counter>";
  for (const std::string& id : ids) wal.put("Counter", id, octets);
  auto wal_get = [&] {
    thread_local std::size_t next = 0;
    benchmark::DoNotOptimize(wal.get("Counter", ids[next++ % ids.size()]));
  };

  const std::vector<Case> cases = {
      {"span_scope", 200'000,
       [] { telemetry::SpanScope span("http.receive", "net"); }},
      {"span_scope_histogram", 200'000,
       [&] {
         telemetry::SpanScope span("container.dispatch", "container",
                                   &telemetry::TraceLog::global(), &stage);
       }},
      {"histogram_record", 1'000'000, [&] { stage.record(7); }},
      {"new_urn_uuid", 200'000, [] { benchmark::DoNotOptimize(common::new_urn_uuid()); }},
      {"sweep_512_never", 20'000, [&] { benchmark::DoNotOptimize(lifetime.sweep()); }},
      {"registry_pin_release", 1'000'000,
       [&] { benchmark::DoNotOptimize(registry.pin("/wsrf/services/Counter")); }},
      {"virtual_caller_exchange", 50'000,
       [&] {
         thread_local net::VirtualCaller caller(net, {.meter = &meter});
         benchmark::DoNotOptimize(caller.call("http://echo.bench/Echo", request));
       }},
      {"wire_meter_charge", 1'000'000, [&] { net.charge_message(&meter, 512); }},
      {"xmldb_cached_load", 200'000,
       [&] {
         thread_local std::size_t next = 0;
         benchmark::DoNotOptimize(db.load("Counter", ids[next++ % ids.size()]));
       }},
      {"wal_get", 200'000, wal_get},
      {"wal_get_with_put", 200'000, wal_get,
       [&] {
         static std::size_t next = 0;
         wal.put("Counter", ids[next++ % ids.size()], octets);
       }},
  };

  std::printf("request overhead (ns/call, median of 3):\n");
  std::printf("  %-24s %10s %10s\n", "call", "1 thread", "2 threads");
  for (const Case& c : cases) {
    std::atomic<bool> stop{false};
    std::thread background;
    if (c.background) {
      background = std::thread([&] {
        while (!stop.load(std::memory_order_relaxed)) c.background();
      });
    }
    double row[2];
    for (int threads : {1, 2}) {
      std::vector<double> reps;
      for (int rep = 0; rep < 3; ++rep) reps.push_back(time_case(c, threads));
      std::sort(reps.begin(), reps.end());
      row[threads - 1] = reps[1];
      bench::BenchTelemetry::instance().add(
          std::string(c.name) + "/threads:" + std::to_string(threads),
          c.iterations * threads, {}, 0.0,
          {{"ns_per_call", reps[1]}, {"threads", threads}});
    }
    stop = true;
    if (background.joinable()) background.join();
    std::printf("  %-24s %10.1f %10.1f\n", c.name, row[0], row[1]);
  }

  bench::BenchTelemetry::instance().write("request_overhead");
  return 0;
}
