// Per-request bookkeeping, one call at a time: what every request pays the
// telemetry and lifetime layers before any parsing or serializing.
//
// A container request opens ~5 spans, records ~7 histogram samples, mints
// two MessageID UUIDs and runs one lifetime sweep. Each of those calls
// takes well under a microsecond when nothing else runs, so end-to-end
// benches cannot resolve them; this bench times each call alone, at 1 and
// 2 threads. At 2 threads both threads share one instrument (the global
// trace log, one histogram, one lifetime manager), as request threads do,
// so the difference between the rows is the cost of shared writes.
//
// The sweep case registers 512 never-expiring entries first: read_mostly's
// 256 WSRF counters per stack, each with a lifetime entry.
//
// Hand-rolled main (one timed loop per case, median of 3 repetitions).
// Prints ns/call and writes BENCH_request_overhead.json with one record per
// (call, threads): ns_per_call and threads. Not gated.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "common/uuid.hpp"
#include "container/lifetime.hpp"
#include "harness.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace gs;

struct Case {
  const char* name;
  long iterations;                    // per thread
  std::function<void()> call;
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
  std::size_t sink = 0;

  const std::vector<Case> cases = {
      {"span_scope", 200'000,
       [] { telemetry::SpanScope span("http.receive", "net"); }},
      {"span_scope_histogram", 200'000,
       [&] {
         telemetry::SpanScope span("container.dispatch", "container",
                                   &telemetry::TraceLog::global(), &stage);
       }},
      {"histogram_record", 1'000'000, [&] { stage.record(7); }},
      {"new_urn_uuid", 200'000, [&] { sink += common::new_urn_uuid().size(); }},
      {"sweep_512_never", 20'000, [&] { sink += lifetime.sweep(); }},
  };

  std::printf("request overhead (ns/call, median of 3):\n");
  std::printf("  %-22s %10s %10s\n", "call", "1 thread", "2 threads");
  for (const Case& c : cases) {
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
    std::printf("  %-22s %10.1f %10.1f\n", c.name, row[0], row[1]);
  }
  if (sink == 1) std::printf("\n");  // keeps the calls' results observable

  bench::BenchTelemetry::instance().write("request_overhead");
  return 0;
}
