// Overload behaviour: goodput under an open-loop load at ~10x capacity.
//
// The paper's measurements are closed-loop (each client waits for its
// response), which can never overload a server: offered load tracks
// completion rate by construction. Real grid front-ends see the opposite —
// submission bursts arrive whether or not the container keeps up — so this
// bench drives the WS-Transfer counter deployment open-loop and measures
// *goodput*: completions that return 200 within a deadline, per second of
// offered-load wall time. Completing a request after its caller gave up
// counts for nothing.
//
// Three measured phases:
//   capacity   closed-loop: W workers, each request holds a simulated
//              10 ms backend I/O stage — the sustainable completion rate.
//   naive      open-loop at 10x capacity against a deployment WITHOUT
//              admission control: the backlog grows without bound, queue
//              wait blows through the deadline, goodput collapses even
//              though the container is "busy" the whole time.
//   admission  the same storm with an AdmissionController driving the
//              accept loop (the production placement — the accept thread
//              sheds, the worker pool never pays to compose rejections):
//              bulk requests are shed once the backlog passes the bulk
//              watermark, so admitted requests still finish in time and
//              goodput stays near capacity. A monitoring-class trickle
//              (WS-Transfer Get on /Telemetry) rides a reserved worker
//              lane and must keep its p99 within 2x of unloaded — you can
//              still see into a saturated container.
//
// Hand-rolled main (the unit of measurement is a multi-threaded trial).
// Writes BENCH_overload.json; exits nonzero when goodput-with-admission
// drops below 70% of capacity, when the naive goodput fails to collapse
// below 50%, or when the monitoring p99 leaves the 2x envelope — the
// overload-control claims are machine-checked, same as the scaling bench.
#include <atomic>
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "container/admission.hpp"
#include "harness.hpp"
#include "telemetry/service.hpp"
#include "wst/client.hpp"

namespace {

using namespace gs;
using Clock = std::chrono::steady_clock;

constexpr std::chrono::milliseconds kBackendDelay{10};
constexpr int kWorkers = 4;            // bulk service lanes
constexpr double kOverloadFactor = 10.0;
constexpr double kDeadlineMs = 400.0;  // caller patience: 40x service time
constexpr auto kOverloadDuration = std::chrono::seconds(2);
constexpr auto kMonitoringInterval = std::chrono::milliseconds(25);

/// Stand-in for the blocking backend call behind every counter request
/// (remote database, compute job). Shed requests never reach it: the
/// admission stage sits in front.
class SimulatedBackendIoHandler final : public container::Handler {
 public:
  const char* name() const noexcept override { return "simulated-backend-io"; }
  void handle(container::PipelineContext& ctx, Next next) override {
    std::this_thread::sleep_for(kBackendDelay);
    next(ctx);
  }
};

enum class Lane { kBulk, kMonitoring };

struct Token {
  Lane lane;
  Clock::time_point enqueued;
};

/// Two-lane accept queue: monitoring pops first, and one worker serves the
/// monitoring lane exclusively so telemetry never waits behind a bulk
/// backlog. `size()` is the live transport backlog the AdmissionController
/// judges depth sheds on.
class LoadQueue {
 public:
  void push(Token t) {
    {
      std::lock_guard lock(mu_);
      (t.lane == Lane::kMonitoring ? monitoring_ : bulk_).push_back(t);
    }
    cv_.notify_one();
  }

  /// Blocks for the next token in `lane` (each worker serves exactly one
  /// lane — the monitoring lane's capacity is reserved, not borrowed).
  /// Returns false when the queue is stopped (tokens still enqueued are
  /// abandoned — their callers timed out long ago).
  bool pop(Lane lane, Token& out) {
    std::deque<Token>& q = lane == Lane::kMonitoring ? monitoring_ : bulk_;
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return stopped_ || !q.empty(); });
    if (q.empty()) return false;  // stopped
    out = q.front();
    q.pop_front();
    return true;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return monitoring_.size() + bulk_.size();
  }

  void stop() {
    {
      std::lock_guard lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

  void reset() {
    std::lock_guard lock(mu_);
    stopped_ = false;
    monitoring_.clear();
    bulk_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Token> monitoring_;
  std::deque<Token> bulk_;
  bool stopped_ = false;
};

struct LaneStats {
  std::int64_t completed = 0;   // 200 within deadline
  std::int64_t late = 0;        // 200 after deadline: throughput, not goodput
  std::int64_t shed = 0;        // 503
  std::int64_t errors = 0;
  std::vector<double> latencies_us;  // completions only

  void merge(const LaneStats& o) {
    completed += o.completed;
    late += o.late;
    shed += o.shed;
    errors += o.errors;
    latencies_us.insert(latencies_us.end(), o.latencies_us.begin(),
                        o.latencies_us.end());
  }
};

double p99_us(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(0.99 * (v.size() - 1))];
}

struct Worker {
  std::unique_ptr<net::VirtualCaller> caller;
  std::unique_ptr<counter::WstCounterClient> client;
  std::unique_ptr<wst::TransferProxy> telemetry;
  LaneStats stats;
};

std::vector<Worker> make_workers(net::VirtualNetwork& net,
                                 counter::WstCounterDeployment& wst,
                                 const std::string& monitoring_address,
                                 int count) {
  std::vector<Worker> workers(static_cast<std::size_t>(count));
  for (Worker& w : workers) {
    w.caller = std::make_unique<net::VirtualCaller>(net,
                                                    net::VirtualCaller::Options{});
    w.client = std::make_unique<counter::WstCounterClient>(
        *w.caller, wst.counter_address(), wst.source_address());
    w.client->create();
    w.client->get();  // warm caches outside any timed window
    w.telemetry = std::make_unique<wst::TransferProxy>(
        *w.caller, soap::EndpointReference(monitoring_address),
        container::ProxySecurity{});
  }
  return workers;
}

void serve(Worker& w, LoadQueue& queue, Lane lane,
           container::AdmissionController* admission) {
  Token token;
  while (queue.pop(lane, token)) {
    if (admission) admission->on_start();
    try {
      if (token.lane == Lane::kMonitoring) {
        w.telemetry->get();
      } else {
        w.client->get();
      }
      double us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                            token.enqueued)
                      .count();
      if (us <= kDeadlineMs * 1000.0) {
        ++w.stats.completed;
        w.stats.latencies_us.push_back(us);
      } else {
        ++w.stats.late;
      }
    } catch (const net::OverloadError&) {
      ++w.stats.shed;
    } catch (const std::exception&) {
      ++w.stats.errors;
    }
    if (admission) admission->on_finish();
  }
}

struct PhaseResult {
  double seconds = 0;
  LaneStats bulk;
  LaneStats monitoring;
  std::int64_t offered = 0;
  std::int64_t abandoned = 0;
};

/// Open-loop storm: a producer enqueues bulk tokens at `rate_per_sec`
/// (plus a monitoring trickle when asked) for `duration`, regardless of
/// how the server keeps up; workers serve until the producer stops, then
/// the remaining backlog is abandoned.
///
/// When `admission` is set, the producer doubles as the accept loop:
/// every arriving request takes one AdmissionController::admit decision
/// *before* it may join the queue — the production placement, where the
/// accept/IO thread sheds and the worker pool's time is never spent
/// composing 503s. Sheds therefore cost the server ~a map lookup, and the
/// backlog the admitted requests wait behind stays bounded at the bulk
/// watermark.
PhaseResult run_open_loop(net::VirtualNetwork& net,
                          counter::WstCounterDeployment& wst,
                          const std::string& monitoring_address,
                          LoadQueue& queue, double rate_per_sec,
                          bool with_monitoring,
                          container::AdmissionController* admission) {
  queue.reset();
  std::vector<Worker> workers =
      make_workers(net, wst, monitoring_address, kWorkers + 1);

  std::vector<std::thread> threads;
  for (int i = 0; i < kWorkers + 1; ++i) {
    Worker& w = workers[static_cast<std::size_t>(i)];
    Lane lane = i == 0 ? Lane::kMonitoring : Lane::kBulk;
    threads.emplace_back(
        [&w, &queue, lane, admission] { serve(w, queue, lane, admission); });
  }

  PhaseResult result;
  auto start = Clock::now();
  auto mon_next = start;
  std::int64_t produced = 0;
  while (true) {
    auto now = Clock::now();
    if (now - start >= kOverloadDuration) break;
    double elapsed = std::chrono::duration<double>(now - start).count();
    auto owed = static_cast<std::int64_t>(elapsed * rate_per_sec);
    for (; produced < owed; ++produced) {
      if (admission &&
          !admission->admit(container::Priority::kBulk, "anon", "/Counter")
               .admitted) {
        ++result.bulk.shed;
        continue;
      }
      queue.push({Lane::kBulk, now});
    }
    if (with_monitoring && now >= mon_next) {
      if (!admission || admission
                            ->admit(container::Priority::kMonitoring, "anon",
                                    "/Telemetry")
                            .admitted) {
        queue.push({Lane::kMonitoring, now});
      } else {
        ++result.monitoring.shed;
      }
      mon_next += kMonitoringInterval;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  result.abandoned = static_cast<std::int64_t>(queue.size());
  queue.stop();
  for (auto& t : threads) t.join();
  result.offered = produced;

  for (int i = 0; i < kWorkers + 1; ++i) {
    Worker& w = workers[static_cast<std::size_t>(i)];
    (i == 0 ? result.monitoring : result.bulk).merge(w.stats);
    w.client->remove();
  }
  return result;
}

/// Closed-loop capacity: W workers issuing back-to-back gets — the
/// completion rate the open-loop phases are scaled from.
double run_capacity(net::VirtualNetwork& net,
                    counter::WstCounterDeployment& wst,
                    const std::string& monitoring_address) {
  std::vector<Worker> workers =
      make_workers(net, wst, monitoring_address, kWorkers);
  constexpr int kOpsPerWorker = 60;
  auto before = Clock::now();
  std::vector<std::thread> threads;
  for (Worker& w : workers) {
    threads.emplace_back([&w] {
      for (int i = 0; i < kOpsPerWorker; ++i) w.client->get();
    });
  }
  for (auto& t : threads) t.join();
  double seconds = std::chrono::duration<double>(Clock::now() - before).count();
  for (Worker& w : workers) w.client->remove();
  return kWorkers * kOpsPerWorker / seconds;
}

/// Unloaded monitoring baseline: sequential telemetry gets on an otherwise
/// idle container.
double run_unloaded_monitoring(net::VirtualNetwork& net,
                               counter::WstCounterDeployment& wst,
                               const std::string& monitoring_address) {
  std::vector<Worker> workers = make_workers(net, wst, monitoring_address, 1);
  std::vector<double> latencies;
  for (int i = 0; i < 100; ++i) {
    auto before = Clock::now();
    workers[0].telemetry->get();
    latencies.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - before)
            .count());
  }
  workers[0].client->remove();
  return p99_us(std::move(latencies));
}

std::unique_ptr<counter::WstCounterDeployment> deploy(
    net::VirtualNetwork& net, net::VirtualCaller& sink, const std::string& host) {
  auto wst = std::make_unique<counter::WstCounterDeployment>(
      counter::WstCounterDeployment::Params{
          .backend = std::make_unique<xmldb::MemoryBackend>(),
          .container = {},
          .notification_sink = &sink,
          .address_base = "http://" + host,
          .subscription_file = {},
      });
  wst->container().chain().insert_after(
      "telemetry", std::make_shared<SimulatedBackendIoHandler>());
  net.bind(host, wst->container());
  return wst;
}

}  // namespace

int main() {
  net::VirtualNetwork net{net::NetworkProfile::colocated()};
  net::VirtualCaller sink(
      net, net::VirtualCaller::Options{.transport = net::TransportKind::kSoapTcp});

  LoadQueue queue;

  // Deployment A ("guarded"): the storm's admission decisions are taken by
  // an AdmissionController at the accept loop (see run_open_loop), depth
  // judged on the live accept queue plus in-flight requests. Token buckets
  // stay disabled — this bench isolates depth shedding; the bucket,
  // breaker, and chain-stage 503 paths are covered by
  // tests/overload_test.cpp. The chain still carries an AdmissionHandler
  // (inflight-only controller): the in-process guard a deployment keeps
  // even when its transport pre-admits, exercised on every admitted
  // request.
  auto guarded = deploy(net, sink, "overload.example");
  auto accept_controller =
      std::make_shared<container::AdmissionController>(
          container::AdmissionConfig{
              .queue_depth = [&queue] { return queue.size(); },
              .per_tenant = {},
              .tenant_overrides = {},
          });
  guarded->container().chain().insert_before(
      "parse", std::make_shared<container::AdmissionHandler>(
                   std::make_shared<container::AdmissionController>(
                       container::AdmissionConfig{})));

  // Deployment B: the same container with no admission anywhere.
  auto naive = deploy(net, sink, "naive.example");

  // The monitoring lane polls a metrics-only telemetry endpoint (no trace
  // ring, no event log in the document): the stock TelemetryService
  // serializes the full global trace ring per Get, which prices a storm's
  // worth of spans into the very probe that is supposed to stay cheap.
  // The "/Telemetry" path suffix keeps it monitoring-class.
  telemetry::TraceLog quiet_trace(1);
  telemetry::TelemetryService guarded_mon(
      "http://overload.example/Mon/Telemetry",
      &telemetry::MetricsRegistry::global(), &quiet_trace, nullptr);
  guarded->container().deploy("/Mon/Telemetry", guarded_mon);
  telemetry::TelemetryService naive_mon(
      "http://naive.example/Mon/Telemetry",
      &telemetry::MetricsRegistry::global(), &quiet_trace, nullptr);
  naive->container().deploy("/Mon/Telemetry", naive_mon);

  std::printf("overload: %d workers + 1 monitoring lane, %lld ms backend I/O "
              "per request, deadline %.0f ms\n",
              kWorkers, static_cast<long long>(kBackendDelay.count()),
              kDeadlineMs);

  const std::string guarded_mon_addr = guarded_mon.address();
  const std::string naive_mon_addr = naive_mon.address();

  auto cap_before = telemetry::MetricsRegistry::global().snapshot();
  double capacity = run_capacity(net, *guarded, guarded_mon_addr);
  bench::BenchTelemetry::instance().add(
      "overload/capacity", static_cast<std::int64_t>(capacity),
      telemetry::delta(cap_before,
                       telemetry::MetricsRegistry::global().snapshot()),
      capacity, {{"capacity_ops_per_sec", capacity}});
  std::printf("  capacity (closed-loop): %.1f ops/sec\n", capacity);

  double offered_rate = kOverloadFactor * capacity;

  auto naive_before = telemetry::MetricsRegistry::global().snapshot();
  PhaseResult naive_result =
      run_open_loop(net, *naive, naive_mon_addr, queue, offered_rate,
                    /*with_monitoring=*/false, /*admission=*/nullptr);
  double naive_goodput = naive_result.bulk.completed / naive_result.seconds;
  bench::BenchTelemetry::instance().add(
      "overload/naive_10x", naive_result.offered,
      telemetry::delta(naive_before,
                       telemetry::MetricsRegistry::global().snapshot()),
      0.0,
      {{"goodput_per_sec", naive_goodput},
       {"offered_per_sec", naive_result.offered / naive_result.seconds},
       {"late", static_cast<double>(naive_result.bulk.late)},
       {"abandoned", static_cast<double>(naive_result.abandoned)}});
  std::printf("  naive 10x: offered=%.0f/s goodput=%.1f/s late=%lld "
              "abandoned=%lld\n",
              naive_result.offered / naive_result.seconds, naive_goodput,
              static_cast<long long>(naive_result.bulk.late),
              static_cast<long long>(naive_result.abandoned));

  double mon_unloaded_p99 =
      run_unloaded_monitoring(net, *guarded, guarded_mon_addr);

  auto adm_before = telemetry::MetricsRegistry::global().snapshot();
  PhaseResult adm = run_open_loop(net, *guarded, guarded_mon_addr, queue,
                                  offered_rate, /*with_monitoring=*/true,
                                  accept_controller.get());
  double adm_goodput = adm.bulk.completed / adm.seconds;
  double mon_loaded_p99 = p99_us(adm.monitoring.latencies_us);
  bench::BenchTelemetry::instance().add(
      "overload/admission_10x", adm.offered,
      telemetry::delta(adm_before,
                       telemetry::MetricsRegistry::global().snapshot()),
      0.0,
      {{"goodput_per_sec", adm_goodput},
       {"offered_per_sec", adm.offered / adm.seconds},
       {"shed", static_cast<double>(adm.bulk.shed)},
       {"monitoring_p99_us", mon_loaded_p99},
       {"monitoring_unloaded_p99_us", mon_unloaded_p99}});
  std::printf("  admission 10x: offered=%.0f/s goodput=%.1f/s shed=%lld "
              "mon_p99=%.0fus (unloaded %.0fus)\n",
              adm.offered / adm.seconds, adm_goodput,
              static_cast<long long>(adm.bulk.shed), mon_loaded_p99,
              mon_unloaded_p99);

  bench::BenchTelemetry::instance().write("overload");

  bool ok = true;
  if (adm_goodput < 0.7 * capacity) {
    std::printf("FAIL: goodput with admission %.1f/s < 70%% of capacity "
                "%.1f/s\n", adm_goodput, capacity);
    ok = false;
  } else {
    std::printf("PASS: goodput with admission %.1f/s >= 70%% of capacity "
                "%.1f/s\n", adm_goodput, capacity);
  }
  if (naive_goodput > 0.5 * capacity) {
    std::printf("FAIL: naive goodput %.1f/s did not collapse (> 50%% of "
                "capacity %.1f/s) — overload scenario is not overloading\n",
                naive_goodput, capacity);
    ok = false;
  } else {
    std::printf("PASS: naive goodput %.1f/s collapsed below 50%% of capacity "
                "%.1f/s\n", naive_goodput, capacity);
  }
  if (adm.bulk.shed == 0) {
    std::printf("FAIL: admission phase shed nothing — storm never hit the "
                "watermark\n");
    ok = false;
  } else {
    std::printf("PASS: admission shed %lld requests\n",
                static_cast<long long>(adm.bulk.shed));
  }
  if (mon_loaded_p99 > 2.0 * mon_unloaded_p99) {
    std::printf("FAIL: monitoring p99 %.0fus > 2x unloaded %.0fus\n",
                mon_loaded_p99, mon_unloaded_p99);
    ok = false;
  } else {
    std::printf("PASS: monitoring p99 %.0fus within 2x of unloaded %.0fus\n",
                mon_loaded_p99, mon_unloaded_p99);
  }
  return ok ? 0 : 1;
}
