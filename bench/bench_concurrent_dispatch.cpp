// Concurrent-dispatch scaling: N client threads against one container.
//
// What this measures is the container's ability to *overlap* requests —
// the sharded registry, per-resource lock stripes, and lock-free metric
// handles on the hot path. Per-request cost is dominated by a simulated
// backend-I/O stage composed into the handler chain (a sleep standing in
// for a remote database or compute call), so on any core count the figure
// of merit is how much of that blocked time concurrent requests hide:
// a serializing container stays flat as threads grow; this one should
// reach >= 3x single-thread throughput at 8 client threads.
//
// Hand-rolled main (no google-benchmark loop: the unit of measurement is
// one multi-threaded trial, not one op). Writes BENCH_concurrent_dispatch.json
// with an ops_per_sec record per thread count; exits nonzero when the
// 8-thread speedup misses 3x, so the scaling claim is machine-checked.
//
// The zero-backend wire trial also records, ungated: DOM nodes and heap
// allocations per request, and the parser's speed on a captured WSRF Get
// response envelope.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "xml/pull.hpp"

// Counting global operator new: heap allocations made on the calling
// thread. The virtual fabric serves a request on the caller's thread, so a
// client thread's count covers its requests end to end.
namespace {
thread_local std::uint64_t tl_heap_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++tl_heap_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace gs;

/// Stand-in for a blocking backend call (remote database, compute job):
/// holds the request for a fixed wall-clock interval without burning CPU,
/// the component of request latency that concurrency can actually hide.
class SimulatedBackendIoHandler final : public container::Handler {
 public:
  static constexpr std::chrono::milliseconds kDelay{2};

  const char* name() const noexcept override { return "simulated-backend-io"; }
  void handle(container::PipelineContext& ctx, Next next) override {
    std::this_thread::sleep_for(kDelay);
    next(ctx);
  }
};

struct Trial {
  int threads;
  double ops_per_sec;
  std::int64_t total_ops;
};

constexpr int kOpsPerThread = 100;  // each op is one set or get request

Trial run_trial(net::VirtualNetwork& net, counter::WstCounterDeployment& wst,
                int thread_count) {
  // Per-thread callers and counters are created outside the timed window;
  // the measurement is request dispatch, not setup.
  struct Worker {
    std::unique_ptr<net::VirtualCaller> caller;
    std::unique_ptr<counter::WstCounterClient> client;
  };
  std::vector<Worker> workers;
  for (int t = 0; t < thread_count; ++t) {
    auto caller = std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
    auto client = std::make_unique<counter::WstCounterClient>(
        *caller, wst.counter_address(), wst.source_address());
    client->create();
    workers.push_back({std::move(caller), std::move(client)});
  }

  auto before = telemetry::MetricsRegistry::global().snapshot();
  auto wall_before = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (Worker& w : workers) {
    threads.emplace_back([&w] {
      for (int i = 0; i < kOpsPerThread / 2; ++i) {
        w.client->set(i);
        w.client->get();
      }
    });
  }
  for (auto& t : threads) t.join();
  auto wall_after = std::chrono::steady_clock::now();
  auto after = telemetry::MetricsRegistry::global().snapshot();

  double seconds = std::chrono::duration<double>(wall_after - wall_before).count();
  std::int64_t total_ops = static_cast<std::int64_t>(thread_count) * kOpsPerThread;
  double ops_per_sec = static_cast<double>(total_ops) / seconds;

  for (Worker& w : workers) w.client->remove();

  bench::BenchTelemetry::instance().add(
      "concurrent_dispatch/threads:" + std::to_string(thread_count), total_ops,
      telemetry::delta(before, after), ops_per_sec);
  return {thread_count, ops_per_sec, total_ops};
}

/// Wire-path trial: same request mix, NO simulated backend stage, so
/// per-request cost is pure container work (parse, dispatch, database
/// touch, serialize) over the arena parser and the envelope writer.
struct WireTrial {
  double ops_per_sec;
  double nodes_per_request;
  double allocations_per_request;
};

WireTrial run_wire_trial(net::VirtualNetwork& net,
                         counter::WstCounterDeployment& wst, int thread_count,
                         std::map<std::string, double> extras) {
  struct Worker {
    std::unique_ptr<net::VirtualCaller> caller;
    std::unique_ptr<counter::WstCounterClient> client;
    std::uint64_t allocations = 0;
  };
  std::vector<Worker> workers;
  for (int t = 0; t < thread_count; ++t) {
    auto caller = std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
    auto client = std::make_unique<counter::WstCounterClient>(
        *caller, wst.counter_address(), wst.source_address());
    client->create();
    client->set(1);  // warm caches and scratch buffers outside the timed window
    client->get();
    workers.push_back({std::move(caller), std::move(client)});
  }

  auto before = telemetry::MetricsRegistry::global().snapshot();
  auto wall_before = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (Worker& w : workers) {
    threads.emplace_back([&w] {
      // Read-heavy mix (one write per ten ops): the Get path is the one
      // the zero-copy pipeline carries end to end; Put's read-modify-write
      // hook necessarily builds a DOM to edit the stored document.
      std::uint64_t allocations_before = tl_heap_allocations;
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (i % 10 == 0) {
          w.client->set(i);
        } else {
          w.client->get();
        }
      }
      w.allocations = tl_heap_allocations - allocations_before;
    });
  }
  for (auto& t : threads) t.join();
  auto wall_after = std::chrono::steady_clock::now();
  auto after = telemetry::MetricsRegistry::global().snapshot();

  double seconds = std::chrono::duration<double>(wall_after - wall_before).count();
  std::int64_t total_ops = static_cast<std::int64_t>(thread_count) * kOpsPerThread;
  double ops_per_sec = static_cast<double>(total_ops) / seconds;

  for (Worker& w : workers) w.client->remove();

  telemetry::MetricsSnapshot interval = telemetry::delta(before, after);
  const telemetry::HistogramSnapshot& nodes =
      interval.histograms["xml.nodes_per_request"];
  double nodes_per_request =
      nodes.count ? static_cast<double>(nodes.sum_us) / nodes.count : 0.0;
  std::uint64_t allocations = 0;
  for (const Worker& w : workers) allocations += w.allocations;
  double allocations_per_request =
      static_cast<double>(allocations) / static_cast<double>(total_ops);

  extras["nodes_per_request"] = nodes_per_request;
  extras["allocations_per_request"] = allocations_per_request;
  // The record keeps its ":fast" name so runs compare against earlier JSON.
  bench::BenchTelemetry::instance().add(
      "concurrent_dispatch/wire_path:fast/threads:" + std::to_string(thread_count),
      total_ops, std::move(interval), ops_per_sec, std::move(extras));
  return {ops_per_sec, nodes_per_request, allocations_per_request};
}

/// Forwards to a container, keeping the last response body it served.
class CapturingEndpoint final : public net::Endpoint {
 public:
  explicit CapturingEndpoint(net::Endpoint& inner) : inner_(inner) {}
  net::HttpResponse handle(const net::HttpRequest& request) override {
    net::HttpResponse response = inner_.handle(request);
    response_ = response.body_str();
    return response;
  }
  const std::string& response() const { return response_; }

 private:
  net::Endpoint& inner_;
  std::string response_;
};

/// The WSRF GetResourceProperty response a counter Get receives, as sent.
std::string capture_wsrf_get_response(net::VirtualNetwork& net) {
  net::VirtualCaller sink(net, net::VirtualCaller::Options{});
  counter::WsrfCounterDeployment wsrf(counter::WsrfCounterDeployment::Params{
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .write_through_cache = true,
      .container = {},
      .notification_sink = &sink,
      .address_base = "http://wsrf-wire.example",
  });
  CapturingEndpoint wire(wsrf.container());
  net.bind("wsrf-wire.example", wire);
  net::VirtualCaller caller(net, net::VirtualCaller::Options{});
  counter::WsrfCounterClient client(caller, wsrf.counter_address());
  client.create();
  client.set(41);
  client.get();
  net.unbind("wsrf-wire.example");
  return wire.response();
}

/// ArenaDocument::parse throughput on `envelope`, in MB/s (single thread):
/// the best of a few rounds, so a scheduler hiccup does not set the figure.
double parse_mb_per_s(const std::string& envelope) {
  constexpr int kRounds = 5;
  constexpr int kParses = 20000;
  double best = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    std::size_t nodes = 0;
    auto started = std::chrono::steady_clock::now();
    for (int i = 0; i < kParses; ++i) {
      nodes += xml::ArenaDocument::parse(envelope).node_count();
    }
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started).count();
    if (nodes == 0) return 0.0;
    best = std::max(best, static_cast<double>(envelope.size()) * kParses / seconds / 1e6);
  }
  return best;
}

}  // namespace

int main() {
  net::VirtualNetwork net{net::NetworkProfile::colocated()};
  net::VirtualCaller sink(
      net, net::VirtualCaller::Options{.transport = net::TransportKind::kSoapTcp});
  // MemoryBackend: the database mutex is held only for the in-memory map
  // touch, so storage does not serialize the trial the way file I/O would.
  counter::WstCounterDeployment wst(counter::WstCounterDeployment::Params{
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .container = {},
      .notification_sink = &sink,
      .address_base = "http://bench.example",
      .subscription_file = {},
  });
  wst.container().chain().insert_after(
      "telemetry", std::make_shared<SimulatedBackendIoHandler>());
  net.bind("bench.example", wst.container());

  std::printf("concurrent dispatch: %d ops/thread, %lldms simulated backend "
              "I/O per request\n",
              kOpsPerThread,
              static_cast<long long>(SimulatedBackendIoHandler::kDelay.count()));

  double single_thread = 0.0;
  double best_speedup = 0.0;
  for (int thread_count : {1, 2, 4, 8}) {
    Trial trial = run_trial(net, wst, thread_count);
    if (thread_count == 1) single_thread = trial.ops_per_sec;
    double speedup = single_thread > 0 ? trial.ops_per_sec / single_thread : 0;
    if (speedup > best_speedup) best_speedup = speedup;
    std::printf("  threads=%d  ops=%lld  ops/sec=%.1f  speedup=%.2fx\n",
                trial.threads, static_cast<long long>(trial.total_ops),
                trial.ops_per_sec, speedup);
  }

  // --- wire-path trial: backend stage at zero --------------------------------
  // A second deployment WITHOUT the simulated backend handler isolates the
  // serialization stack: what the arena parser + envelope writer cost
  // when nothing else dominates. (tests/wire_test.cpp bounds the nodes.)
  net::VirtualCaller wire_sink(
      net, net::VirtualCaller::Options{.transport = net::TransportKind::kSoapTcp});
  counter::WstCounterDeployment wire(counter::WstCounterDeployment::Params{
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .container = {},
      .notification_sink = &wire_sink,
      .address_base = "http://wire.example",
      .subscription_file = {},
  });
  net.bind("wire.example", wire.container());

  const std::string envelope = capture_wsrf_get_response(net);
  const double parse_speed = parse_mb_per_s(envelope);

  constexpr int kWireThreads = 4;
  std::printf("wire path (no backend stage, %d threads):\n", kWireThreads);
  WireTrial wire_trial = run_wire_trial(
      net, wire, kWireThreads,
      {{"parse_mb_per_s", parse_speed},
       {"parse_envelope_bytes", static_cast<double>(envelope.size())}});
  std::printf("  ops/sec=%.1f  dom_nodes/request=%.1f  allocations/request=%.1f\n",
              wire_trial.ops_per_sec, wire_trial.nodes_per_request,
              wire_trial.allocations_per_request);
  std::printf("  parse: %.0f MB/s on the %zu-byte WSRF Get response\n", parse_speed,
              envelope.size());

  bench::BenchTelemetry::instance().write("concurrent_dispatch");

  if (best_speedup < 3.0) {
    std::printf("FAIL: best speedup %.2fx < 3x over single-thread\n",
                best_speedup);
    return 1;
  }
  std::printf("PASS: best speedup %.2fx >= 3x over single-thread\n",
              best_speedup);
  return 0;
}
