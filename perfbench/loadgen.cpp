// Closed-loop dual-stack benchmark load generator.
//
//   perfbench_loadgen --workload <read_mostly|resource_churn|signed_mix>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// Two client threads in one process, each with its own VirtualCaller (its
// own connection), drive one WSRF and one WS-Transfer counter deployment
// over the in-process virtual network (co-located profile). Every client
// alternates its requests between the two stacks. Both deployments store
// through a WAL engine over in-memory log devices: the WAL's CPU and its
// group-commit hand-off are measured, disk fsync noise is not. Latency is
// wall-clock from the client call to its return; the network model's
// simulated wire time is reported per layer, never added to latency.
//
// --trace 0 prints the end-to-end metrics of one untraced run. --trace 1
// alternates untraced and traced slices (a fifth of the time traced) and prints
// the per-layer metrics built from the traced slices' spans plus the
// tracing overhead between the two. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "counter/wsrf_counter.hpp"
#include "counter/wst_counter.hpp"
#include "spans.hpp"
#include "telemetry/metrics.hpp"
#include "workload.hpp"
#include "xmldb/wal.hpp"

namespace {

using namespace gs;
using perfbench::Kind;
using perfbench::Layer;
using perfbench::Op;
using perfbench::OpKind;
using perfbench::SpanScope;
using perfbench::Stack;
using perfbench::Workload;
using perfbench::now_ns;

constexpr unsigned kClients = 2;
constexpr int kSetupRounds = 3;
constexpr double kWarmupSeconds = 0.5;
// Latency samples per client held without reallocating (over four times
// what the fastest workload records today); the buffers are touched during
// set-up so peak RSS does not grow with the op count.
constexpr std::size_t kSampleCapacity = 1 << 21;
// The in-memory log is compacted at this size, which bounds its memory.
constexpr std::uint64_t kWalCompactBytes = 1 << 20;
// Traced runs alternate untraced and traced slices, so drift in machine
// load biases neither side of the tracing-overhead comparison. Spans are
// kept in memory, so only a fifth of the run is traced.
constexpr int kTraceSlicePairs = 4;
constexpr double kTracedShare = 0.2;
// Untraced runs report medians over this many equal slices of the window.
constexpr int kSlices = 30;
// p99 is taken over groups of consecutive slices holding at least this
// many samples, so every p99 has at least ten samples beyond it.
constexpr std::size_t kMinP99Samples = 1000;

// --- probes around the program's public entry points ------------------------

/// Times every call through a SoapCaller (client connections and the
/// notification sinks).
class TimingCaller final : public net::SoapCaller {
 public:
  TimingCaller(net::SoapCaller& inner, Kind kind) : inner_(inner), kind_(kind) {}

  soap::Envelope call(const std::string& address,
                      const soap::Envelope& request) override {
    SpanScope span(kind_);
    calls_.fetch_add(1, std::memory_order_relaxed);
    soap::Envelope response = inner_.call(address, request);
    ok_.fetch_add(1, std::memory_order_relaxed);
    return response;
  }

  std::uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  std::uint64_t ok() const { return ok_.load(std::memory_order_relaxed); }

 private:
  net::SoapCaller& inner_;
  Kind kind_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> ok_{0};
};

/// Bound on the virtual network in front of a Container.
class TimingEndpoint final : public net::Endpoint {
 public:
  explicit TimingEndpoint(net::Endpoint& inner) : inner_(inner) {}

  net::HttpResponse handle(const net::HttpRequest& request) override {
    SpanScope span(Kind::kEndpoint);
    net::HttpResponse response = inner_.handle(request);
    request_bytes_.fetch_add(request.body.size(), std::memory_order_relaxed);
    response_bytes_.fetch_add(response.body_size(), std::memory_order_relaxed);
    return response;
  }
  const security::Credential* tls_credential() const override {
    return inner_.tls_credential();
  }

  std::uint64_t request_bytes() const { return request_bytes_.load(); }
  std::uint64_t response_bytes() const { return response_bytes_.load(); }

 private:
  net::Endpoint& inner_;
  std::atomic<std::uint64_t> request_bytes_{0};
  std::atomic<std::uint64_t> response_bytes_{0};
};

/// Pass-through chain stage: a span over every stage from its position in.
class StageProbe final : public container::Handler {
 public:
  StageProbe(const char* name, Kind kind) : name_(name), kind_(kind) {}
  const char* name() const noexcept override { return name_; }
  void handle(container::PipelineContext& ctx, Next next) override {
    SpanScope span(kind_);
    next(ctx);
  }

 private:
  const char* name_;
  Kind kind_;
};

/// Storage decorator: a span per backend call.
class TimingBackend final : public xmldb::Backend {
 public:
  explicit TimingBackend(std::unique_ptr<xmldb::Backend> inner)
      : inner_(std::move(inner)) {}

  void put(const std::string& collection, const std::string& id,
           const std::string& octets) override {
    SpanScope span(Kind::kDbPut);
    inner_->put(collection, id, octets);
  }
  std::optional<std::string> get(const std::string& collection,
                                 const std::string& id) override {
    SpanScope span(Kind::kDbGet);
    return inner_->get(collection, id);
  }
  bool remove(const std::string& collection, const std::string& id) override {
    SpanScope span(Kind::kDbRemove);
    return inner_->remove(collection, id);
  }
  std::vector<std::string> list(const std::string& collection) override {
    SpanScope span(Kind::kDbOther);
    return inner_->list(collection);
  }
  bool contains(const std::string& collection, const std::string& id) override {
    SpanScope span(Kind::kDbOther);
    return inner_->contains(collection, id);
  }

 private:
  std::unique_ptr<xmldb::Backend> inner_;
};

const xml::Element* find_local(const xml::Element& el, std::string_view local) {
  if (el.name().local() == local) return &el;
  for (const xml::Element* child : el.child_elements()) {
    if (const xml::Element* hit = find_local(*child, local)) return hit;
  }
  return nullptr;
}

/// The notification sink of one client: counts CounterValueChanged
/// deliveries and remembers the last value delivered.
class BenchConsumer final : public net::Endpoint {
 public:
  net::HttpResponse handle(const net::HttpRequest& request) override {
    static const std::string kAck = soap::Envelope().to_xml();
    soap::Envelope env = soap::Envelope::from_xml(request.body);
    const xml::Element* event =
        env.payload() ? find_local(*env.payload(), "CounterValueChanged") : nullptr;
    const xml::Element* value = event ? event->child_local("Value") : nullptr;
    std::lock_guard lock(mu_);
    ++count_;
    last_value_ = value ? value->text() : std::string();
    return net::HttpResponse::ok(kAck);
  }

  std::uint64_t count() const {
    std::lock_guard lock(mu_);
    return count_;
  }
  std::string last_value() const {
    std::lock_guard lock(mu_);
    return last_value_;
  }

 private:
  mutable std::mutex mu_;
  std::uint64_t count_ = 0;
  std::string last_value_;
};

// --- the system under test ---------------------------------------------------

struct Pki {
  std::mt19937_64 rng{20050712};  // fixed: every run generates the same keys
  security::CertificateAuthority ca =
      security::CertificateAuthority::create("CN=BenchCA,O=VO", 1024, rng);
  security::Credential service = issue("CN=vo-host,O=VO");
  security::Credential user = issue("CN=alice,O=VO");

  security::Credential issue(const std::string& dn) {
    return ca.issue(dn, 1024, rng, 0, std::numeric_limits<common::TimeMs>::max());
  }
};

struct Client {
  unsigned index = 0;
  std::unique_ptr<net::VirtualCaller> connection;
  std::unique_ptr<TimingCaller> caller;
  container::ProxySecurity security;
  std::string sink_address;
  BenchConsumer* consumer = nullptr;

  std::vector<std::unique_ptr<counter::WsrfCounterClient>> wsrf;
  std::vector<std::unique_ptr<counter::WstCounterClient>> wst;
  std::vector<int> expected[2];  // last value this client set, per stack
  std::optional<wsn::SubscriptionProxy> wsrf_subscription;
  std::optional<wse::WseSubscriptionProxy> wst_subscription;

  std::vector<Op> ops;
  std::size_t cursor = 0;

  // Per-phase results: the slice and latency of every counted op.
  std::vector<std::uint8_t> slice_of;
  std::vector<std::uint32_t> latencies_ns;
  std::uint64_t failed = 0;
};

struct Rig {
  net::VirtualNetwork net{net::NetworkProfile::colocated()};
  net::WireMeter meter;
  std::unique_ptr<net::VirtualCaller> wsrf_sink_connection;
  std::unique_ptr<net::VirtualCaller> wst_sink_connection;
  std::unique_ptr<TimingCaller> wsrf_sink;
  std::unique_ptr<TimingCaller> wst_sink;
  xmldb::WalBackend* wsrf_wal = nullptr;
  xmldb::WalBackend* wst_wal = nullptr;
  std::unique_ptr<counter::WsrfCounterDeployment> wsrf;
  std::unique_ptr<counter::WstCounterDeployment> wst;
  std::unique_ptr<TimingEndpoint> wsrf_endpoint;
  std::unique_ptr<TimingEndpoint> wst_endpoint;
  std::vector<std::unique_ptr<BenchConsumer>> consumers;
  std::vector<std::unique_ptr<Client>> clients;
};

std::unique_ptr<TimingBackend> wal_backend(xmldb::WalBackend*& raw) {
  auto wal = std::make_unique<xmldb::WalBackend>(
      std::make_shared<xmldb::MemoryLogDevice>(),
      std::make_shared<xmldb::MemoryLogDevice>(),
      xmldb::WalOptions{.compact_threshold_bytes = kWalCompactBytes});
  raw = wal.get();
  return std::make_unique<TimingBackend>(std::move(wal));
}

void insert_probes(container::Container& c, Kind dispatch_kind) {
  c.chain().insert_before(
      "security", std::make_shared<StageProbe>("probe.security", Kind::kSecurityStage));
  c.chain().insert_before(
      "dispatch", std::make_shared<StageProbe>("probe.dispatch", dispatch_kind));
}

std::unique_ptr<Rig> build_rig(Workload workload, const Pki& pki) {
  const perfbench::WorkloadShape shape = perfbench::shape_of(workload);
  auto rig = std::make_unique<Rig>();

  container::ContainerConfig cc;
  container::ProxySecurity proxy_security;
  if (shape.x509) {
    cc.security = container::SecurityMode::kX509;
    cc.anchor = &pki.ca.root();
    cc.credential = &pki.service;
    proxy_security = {&pki.user, &pki.ca.root(), &common::RealClock::instance()};
  }

  // Each toolkit's own delivery transport: WSRF.NET reconnects per
  // message, WS-Eventing keeps a SOAP/TCP connection.
  rig->wsrf_sink_connection = std::make_unique<net::VirtualCaller>(
      rig->net, net::VirtualCaller::Options{.keep_alive = false, .meter = &rig->meter});
  rig->wst_sink_connection = std::make_unique<net::VirtualCaller>(
      rig->net, net::VirtualCaller::Options{.transport = net::TransportKind::kSoapTcp,
                                            .meter = &rig->meter});
  rig->wsrf_sink = std::make_unique<TimingCaller>(*rig->wsrf_sink_connection, Kind::kDelivery);
  rig->wst_sink = std::make_unique<TimingCaller>(*rig->wst_sink_connection, Kind::kDelivery);

  rig->wsrf = std::make_unique<counter::WsrfCounterDeployment>(
      counter::WsrfCounterDeployment::Params{
          .backend = wal_backend(rig->wsrf_wal),
          .write_through_cache = true,
          .container = cc,
          .notification_sink = rig->wsrf_sink.get(),
          .address_base = "http://wsrf.bench",
      });
  rig->wst = std::make_unique<counter::WstCounterDeployment>(
      counter::WstCounterDeployment::Params{
          .backend = wal_backend(rig->wst_wal),
          .container = cc,
          .notification_sink = rig->wst_sink.get(),
          .address_base = "http://wst.bench",
          .subscription_file = {},
          .subscriptions_in_db = true,
      });
  insert_probes(rig->wsrf->container(), Kind::kDispatchWsrf);
  insert_probes(rig->wst->container(), Kind::kDispatchWst);
  rig->wsrf_endpoint = std::make_unique<TimingEndpoint>(rig->wsrf->container());
  rig->wst_endpoint = std::make_unique<TimingEndpoint>(rig->wst->container());
  rig->net.bind("wsrf.bench", *rig->wsrf_endpoint);
  rig->net.bind("wst.bench", *rig->wst_endpoint);

  const std::size_t pool = std::max<std::size_t>(shape.pool, 1);
  for (unsigned i = 0; i < kClients; ++i) {
    auto c = std::make_unique<Client>();
    c->index = i;
    c->connection = std::make_unique<net::VirtualCaller>(
        rig->net, net::VirtualCaller::Options{.meter = &rig->meter});
    c->caller = std::make_unique<TimingCaller>(*c->connection, Kind::kCaller);
    c->security = proxy_security;
    std::string authority = "sink" + std::to_string(i) + ".bench";
    c->sink_address = "http://" + authority + "/events";
    rig->consumers.push_back(std::make_unique<BenchConsumer>());
    c->consumer = rig->consumers.back().get();
    rig->net.bind(authority, *c->consumer);
    for (std::size_t k = 0; k < pool; ++k) {
      c->wsrf.push_back(std::make_unique<counter::WsrfCounterClient>(
          *c->caller, rig->wsrf->counter_address(), c->security));
      c->wst.push_back(std::make_unique<counter::WstCounterClient>(
          *c->caller, rig->wst->counter_address(), rig->wst->source_address(),
          c->security));
      // Churn creates its own counters; the read workloads share a pool.
      if (shape.pool > 0) {
        c->wsrf.back()->create();
        c->wst.back()->create();
      }
    }
    c->slice_of.resize(kSampleCapacity);
    c->latencies_ns.resize(kSampleCapacity);
    c->expected[0].assign(pool, 0);
    c->expected[1].assign(pool, 0);
    rig->clients.push_back(std::move(c));
  }
  return rig;
}

// --- one operation -------------------------------------------------------------

Kind span_kind(OpKind kind) {
  switch (kind) {
    case OpKind::kGet: return Kind::kOpGet;
    case OpKind::kSet: return Kind::kOpSet;
    case OpKind::kCreate: return Kind::kOpCreate;
    case OpKind::kSubscribe: return Kind::kOpSubscribe;
    case OpKind::kUnsubscribe: return Kind::kOpUnsubscribe;
    case OpKind::kDestroy: return Kind::kOpDestroy;
  }
  return Kind::kOpGet;
}

/// Issues one request; returns what a Get read (0 otherwise).
int perform(Client& c, const Op& op) {
  const bool wsrf = op.stack == Stack::kWsrf;
  switch (op.kind) {
    case OpKind::kGet:
      return wsrf ? c.wsrf[op.counter]->get() : c.wst[op.counter]->get();
    case OpKind::kSet:
      wsrf ? c.wsrf[op.counter]->set(op.value) : c.wst[op.counter]->set(op.value);
      return 0;
    case OpKind::kCreate:
      wsrf ? (void)c.wsrf[op.counter]->create() : (void)c.wst[op.counter]->create();
      return 0;
    case OpKind::kSubscribe: {
      soap::EndpointReference sink(c.sink_address);
      if (wsrf) {
        c.wsrf_subscription.emplace(c.wsrf[op.counter]->subscribe(sink));
      } else {
        auto handle = c.wst[op.counter]->subscribe(sink);
        c.wst_subscription.emplace(*c.caller, handle.manager, c.security);
      }
      return 0;
    }
    case OpKind::kUnsubscribe:
      // A failed Subscribe leaves nothing to cancel; that counts as a failure.
      if (wsrf ? !c.wsrf_subscription : !c.wst_subscription) {
        throw std::logic_error("Unsubscribe without a subscription");
      }
      if (wsrf) {
        c.wsrf_subscription->unsubscribe();
        c.wsrf_subscription.reset();
      } else {
        c.wst_subscription->unsubscribe();
        c.wst_subscription.reset();
      }
      return 0;
    case OpKind::kDestroy:
      wsrf ? c.wsrf[op.counter]->destroy() : c.wst[op.counter]->remove();
      return 0;
  }
  return 0;
}

std::atomic<int> g_reported_errors{0};

void report_error(const Client& c, const Op& op, const std::string& what) {
  if (g_reported_errors.fetch_add(1) < 5) {
    std::fprintf(stderr, "client %u: op kind %d on %s failed: %s\n", c.index,
                 static_cast<int>(op.kind), op.stack == Stack::kWsrf ? "wsrf" : "wst",
                 what.c_str());
  }
}

struct OpResult {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool ok = false;
};

/// Runs one op and checks its output: a Get returns the last value this
/// client set; a Set delivers exactly one CounterValueChanged carrying the
/// new value when the counter is subscribed, and none otherwise.
OpResult execute(Client& c, const Op& op, std::uint64_t request) {
  const auto s = static_cast<std::size_t>(op.stack);
  const bool subscribed = op.stack == Stack::kWsrf ? c.wsrf_subscription.has_value()
                                                   : c.wst_subscription.has_value();
  const std::uint64_t delivered_before = c.consumer->count();
  perfbench::set_request(request);

  OpResult r;
  int got = 0;
  std::string error;
  r.start_ns = now_ns();
  try {
    SpanScope span(span_kind(op.kind), static_cast<std::uint8_t>(op.stack), r.start_ns);
    got = perform(c, op);
    r.end_ns = now_ns();
    span.close(r.end_ns);
  } catch (const std::exception& e) {
    r.end_ns = now_ns();
    report_error(c, op, e.what());
    return r;
  }

  int& expected = c.expected[s][op.counter];
  switch (op.kind) {
    case OpKind::kGet:
      r.ok = got == expected;
      if (!r.ok) {
        error = "Get returned " + std::to_string(got) + ", expected " +
                std::to_string(expected);
      }
      break;
    case OpKind::kSet: {
      expected = op.value;
      std::uint64_t delivered = c.consumer->count() - delivered_before;
      r.ok = delivered == (subscribed ? 1u : 0u) &&
             (!subscribed || c.consumer->last_value() == std::to_string(op.value));
      if (!r.ok) error = "Set delivered " + std::to_string(delivered) + " notifications";
      break;
    }
    case OpKind::kCreate:
      expected = 0;
      r.ok = true;
      break;
    default:
      r.ok = true;
  }
  if (!r.ok) report_error(c, op, error);
  return r;
}

// --- phases ----------------------------------------------------------------------

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One stretch of a phase's measurement window.
struct Slice {
  double seconds = 0;
  double cpu_seconds = 0;
  std::uint64_t ops = 0;
  std::vector<std::int64_t> latencies_ns;
};

struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Read before the samples are binned, so the copies made for the report
  // do not count.
  double peak_rss_mb = 0;
  std::vector<Slice> slices;

  double throughput() const {
    double ops = 0, seconds = 0;
    for (const Slice& slice : slices) {
      ops += static_cast<double>(slice.ops);
      seconds += slice.seconds;
    }
    return seconds > 0 ? ops / seconds : 0;
  }
  Phase& operator+=(const Phase& other) {
    attempted += other.attempted;
    failed += other.failed;
    slices.insert(slices.end(), other.slices.begin(), other.slices.end());
    return *this;
  }
};

/// Closed loop: every client issues its next op when the previous returns.
/// Ops that start before the warm-up ends are not counted; the rest are
/// binned by start time into `n_slices` equal slices of the window.
Phase run_phase(Rig& rig, double warmup_s, double measure_s, int n_slices) {
  const std::int64_t start = now_ns();
  const std::int64_t window_start = start + static_cast<std::int64_t>(warmup_s * 1e9);
  const std::int64_t slice_ns = static_cast<std::int64_t>(measure_s * 1e9) / n_slices;
  const std::int64_t window_end = window_start + slice_ns * n_slices;

  std::vector<std::thread> threads;
  for (auto& client : rig.clients) {
    Client& c = *client;
    c.latencies_ns.clear();
    c.slice_of.clear();
    c.failed = 0;
    threads.emplace_back([&c, window_start, slice_ns, n_slices, window_end] {
      for (;;) {
        const Op& op = c.ops[c.cursor % c.ops.size()];
        std::uint64_t request = (std::uint64_t{c.index} << 48) | c.cursor;
        ++c.cursor;
        OpResult r = execute(c, op, request);
        if (r.start_ns >= window_start) {
          auto slice = std::min<std::int64_t>((r.start_ns - window_start) / slice_ns,
                                              n_slices - 1);
          c.slice_of.push_back(static_cast<std::uint8_t>(slice));
          c.latencies_ns.push_back(static_cast<std::uint32_t>(
              std::min<std::int64_t>(r.end_ns - r.start_ns, UINT32_MAX)));
          if (!r.ok) ++c.failed;
        }
        if (r.end_ns >= window_end) break;
      }
    });
  }
  std::vector<double> cpu_at(static_cast<std::size_t>(n_slices) + 1);
  for (int k = 0; k <= n_slices; ++k) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(window_start + k * slice_ns)));
    cpu_at[static_cast<std::size_t>(k)] = cpu_seconds();
  }
  for (auto& t : threads) t.join();

  Phase phase;
  phase.peak_rss_mb = peak_rss_mb();
  phase.slices.resize(static_cast<std::size_t>(n_slices));
  for (int k = 0; k < n_slices; ++k) {
    Slice& slice = phase.slices[static_cast<std::size_t>(k)];
    slice.seconds = static_cast<double>(slice_ns) / 1e9;
    slice.cpu_seconds = cpu_at[static_cast<std::size_t>(k) + 1] - cpu_at[static_cast<std::size_t>(k)];
  }
  for (auto& client : rig.clients) {
    phase.attempted += client->latencies_ns.size();
    phase.failed += client->failed;
    for (std::size_t i = 0; i < client->latencies_ns.size(); ++i) {
      Slice& slice = phase.slices[client->slice_of[i]];
      ++slice.ops;
      slice.latencies_ns.push_back(client->latencies_ns[i]);
    }
  }
  return phase;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// --- report ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.12g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Throughput, latency percentiles and CPU per op are the medians of their
/// per-slice values (p99: per group of slices), so a burst of machine noise
/// in one part of the run does not move the run's figure.
std::vector<Metric> end_to_end(const Phase& p, double setup_s) {
  std::vector<double> throughput, p50, p99, cpu;
  std::vector<std::int64_t> group;
  std::size_t groups = 0;
  for (std::size_t i = 0; i < p.slices.size(); ++i) {
    const Slice& slice = p.slices[i];
    std::vector<std::int64_t> lat = slice.latencies_ns;
    double ops = static_cast<double>(std::max<std::uint64_t>(slice.ops, 1));
    throughput.push_back(static_cast<double>(slice.ops) / slice.seconds);
    p50.push_back(us(perfbench::percentile(lat, 50)));
    cpu.push_back(slice.cpu_seconds * 1e6 / ops);
    group.insert(group.end(), lat.begin(), lat.end());
    std::size_t rest = 0;
    for (std::size_t j = i + 1; j < p.slices.size(); ++j) rest += p.slices[j].ops;
    // A short tail joins the last full group.
    if (group.size() >= kMinP99Samples && rest >= kMinP99Samples) {
      p99.push_back(us(perfbench::percentile(group, 99)));
      group.clear();
      ++groups;
    }
  }
  p99.push_back(us(perfbench::percentile(group, 99)));
  ++groups;
  std::printf("latency samples: %llu in %zu slices; p99 over %zu groups\n",
              static_cast<unsigned long long>(p.attempted), p.slices.size(), groups);
  const double attempted = static_cast<double>(std::max<std::uint64_t>(p.attempted, 1));
  return {
      {"throughput_ops_s", median(throughput), "ops/s"},
      {"latency_p50_us", median(p50), "us"},
      {"latency_p99_us", median(p99), "us"},
      {"cpu_us_per_op", median(cpu), "us"},
      {"success_rate", 1.0 - static_cast<double>(p.failed) / attempted, "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", p.peak_rss_mb, "MB"},
  };
}

/// Counters the probes and the program keep, read around the traced phase.
struct Counters {
  std::uint64_t request_bytes = 0, response_bytes = 0;
  std::uint64_t deliveries = 0, delivered_ok = 0;
  double wire_ms = 0;
  std::uint64_t nodes = 0;
  std::uint64_t wal_records = 0, wal_batches = 0;

  static Counters read(Rig& rig) {
    Counters c;
    c.request_bytes = rig.wsrf_endpoint->request_bytes() + rig.wst_endpoint->request_bytes();
    c.response_bytes = rig.wsrf_endpoint->response_bytes() + rig.wst_endpoint->response_bytes();
    c.deliveries = rig.wsrf_sink->calls() + rig.wst_sink->calls();
    c.delivered_ok = rig.wsrf_sink->ok() + rig.wst_sink->ok();
    c.wire_ms = rig.meter.simulated_ms();
    c.nodes = telemetry::MetricsRegistry::global().histogram("xml.nodes_per_request").sum_us();
    for (xmldb::WalBackend* wal : {rig.wsrf_wal, rig.wst_wal}) {
      xmldb::WalStats stats = wal->stats();
      c.wal_records += stats.records;
      c.wal_batches += stats.batches;
    }
    return c;
  }

  Counters operator-(const Counters& o) const {
    return {request_bytes - o.request_bytes, response_bytes - o.response_bytes,
            deliveries - o.deliveries,       delivered_ok - o.delivered_ok,
            wire_ms - o.wire_ms,             nodes - o.nodes,
            wal_records - o.wal_records,     wal_batches - o.wal_batches};
  }
  Counters& operator+=(const Counters& o) {
    request_bytes += o.request_bytes;
    response_bytes += o.response_bytes;
    deliveries += o.deliveries;
    delivered_ok += o.delivered_ok;
    wire_ms += o.wire_ms;
    nodes += o.nodes;
    wal_records += o.wal_records;
    wal_batches += o.wal_batches;
    return *this;
  }
};

/// Per-layer metrics of the traced slices; `counted` holds the counter
/// deltas over those slices.
std::vector<Metric> per_layer(const Phase& untraced, const Phase& traced,
                              const Counters& counted) {
  std::vector<perfbench::Span> spans = perfbench::take_spans();
  std::vector<std::int64_t> self = perfbench::self_times(spans);

  auto is_op = [](Kind k) { return perfbench::layer_of(k) == Layer::kClient; };
  // Only spans under an op count; an op's layers then add up to its wall time.
  std::vector<char> rooted(spans.size(), 0);
  double layer_ns[static_cast<int>(Layer::kCount)] = {};
  double ops = 0, ops_by_stack[2] = {0, 0}, wall_ns = 0;
  // Kinds whose duration distributions are reported.
  std::map<Kind, std::vector<std::int64_t>> durations;
  for (Kind k : {Kind::kDbGet, Kind::kDbPut, Kind::kDbRemove, Kind::kDelivery,
                 Kind::kOpCreate, Kind::kOpGet}) {
    durations[k];
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    rooted[i] = s.parent < 0 ? is_op(s.kind) : rooted[static_cast<std::size_t>(s.parent)];
    if (!rooted[i]) continue;
    layer_ns[static_cast<int>(perfbench::layer_of(s.kind))] += static_cast<double>(self[i]);
    if (auto it = durations.find(s.kind); it != durations.end()) {
      it->second.push_back(s.end_ns - s.start_ns);
    }
    if (s.parent < 0) {
      ops += 1;
      ops_by_stack[s.tag & 1] += 1;
      wall_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  ops = std::max(ops, 1.0);
  double attributed_ns = 0;
  for (double v : layer_ns) attributed_ns += v;

  auto layer_us = [&](Layer l, double per) {
    return layer_ns[static_cast<int>(l)] / std::max(per, 1.0) / 1e3;
  };
  auto count = [&](Kind k) { return static_cast<double>(durations[k].size()); };
  auto pct_us = [&](Kind k, double p) { return us(perfbench::percentile(durations[k], p)); };
  auto per_op = [&](double v) { return v / ops; };
  double deliveries = static_cast<double>(counted.deliveries);
  double batches = static_cast<double>(counted.wal_batches);

  return {
      {"client.self_us", layer_us(Layer::kClient, ops), "us"},
      {"net.self_us", layer_us(Layer::kNet, ops), "us"},
      {"net.request_bytes", per_op(static_cast<double>(counted.request_bytes)), "bytes"},
      {"net.response_bytes", per_op(static_cast<double>(counted.response_bytes)), "bytes"},
      {"net.wire_sim_us", per_op(counted.wire_ms * 1e3), "us"},
      {"container.self_us", layer_us(Layer::kContainer, ops), "us"},
      {"xml.nodes_per_op", per_op(static_cast<double>(counted.nodes)), "count"},
      {"security.self_us", layer_us(Layer::kSecurity, ops), "us"},
      {"service.wsrf_self_us", layer_us(Layer::kServiceWsrf, ops_by_stack[0]), "us"},
      {"service.wst_self_us", layer_us(Layer::kServiceWst, ops_by_stack[1]), "us"},
      {"xmldb.self_us", layer_us(Layer::kXmldb, ops), "us"},
      {"xmldb.get_us", pct_us(Kind::kDbGet, 50), "us"},
      {"xmldb.gets_per_op", per_op(count(Kind::kDbGet)), "count"},
      {"xmldb.put_p50_us", pct_us(Kind::kDbPut, 50), "us"},
      {"xmldb.put_p99_us", pct_us(Kind::kDbPut, 99), "us"},
      {"xmldb.remove_us", pct_us(Kind::kDbRemove, 50), "us"},
      {"xmldb.puts_per_op", per_op(count(Kind::kDbPut)), "count"},
      {"xmldb.wal_batch_size",
       batches > 0 ? static_cast<double>(counted.wal_records) / batches : 0,
       "count"},
      {"delivery.call_us", pct_us(Kind::kDelivery, 50), "us"},
      {"delivery.per_op", per_op(deliveries), "count"},
      {"delivery.ok_ratio",
       deliveries > 0 ? static_cast<double>(counted.delivered_ok) / deliveries : 0,
       "ratio"},
      {"ops.create_p50_us", pct_us(Kind::kOpCreate, 50), "us"},
      {"ops.get_p50_us", pct_us(Kind::kOpGet, 50), "us"},
      {"trace.unattributed_pct", wall_ns > 0 ? (wall_ns - attributed_ns) / wall_ns * 100 : 0, "%"},
      {"trace.overhead_pct",
       untraced.throughput() > 0
           ? (untraced.throughput() - traced.throughput()) / untraced.throughput() * 100
           : 0,
       "%"},
  };
}

struct Args {
  Workload workload = Workload::kReadMostly;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      auto w = perfbench::parse_workload(value);
      if (!w) return std::nullopt;
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end && *end == '\0' && args.seconds > 0 && args.seconds <= 120;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) return std::nullopt;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload <read_mostly|resource_churn|signed_mix> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  // Set-up: PKI keygen, both deployments over fresh WALs, and the counter
  // pools. Every workload generates the PKI, so set-up is comparable across
  // workloads. Repeated; the median is reported and the last deployment
  // serves the run.
  std::unique_ptr<Pki> pki;
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_times;
  for (int round = 0; round < kSetupRounds; ++round) {
    rig.reset();
    pki.reset();
    std::int64_t t0 = now_ns();
    pki = std::make_unique<Pki>();
    rig = build_rig(args->workload, *pki);
    setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const double setup_s = median(setup_times);

  for (auto& c : rig->clients) c->ops = perfbench::make_ops(args->workload, args->seed, c->index);

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  if (!args->trace) {
    Phase run = run_phase(*rig, kWarmupSeconds, args->seconds, kSlices);
    attempted = run.attempted;
    failed = run.failed;
    metrics = end_to_end(run, setup_s);
  } else {
    const double traced_s = args->seconds * kTracedShare / kTraceSlicePairs;
    const double untraced_s = args->seconds * (1 - kTracedShare) / kTraceSlicePairs;
    Phase untraced, traced;
    Counters counted;
    for (int i = 0; i < kTraceSlicePairs; ++i) {
      untraced += run_phase(*rig, i == 0 ? kWarmupSeconds : 0, untraced_s, 1);
      Counters before = Counters::read(*rig);
      perfbench::set_tracing(true);
      traced += run_phase(*rig, 0, traced_s, 1);
      perfbench::set_tracing(false);
      counted += Counters::read(*rig) - before;
    }
    attempted = untraced.attempted + traced.attempted;
    failed = untraced.failed + traced.failed;
    metrics = per_layer(untraced, traced, counted);
  }
  std::fflush(stdout);
  rig.reset();
  print_result(failed == 0 && attempted > 0, attempted, failed, metrics);
  return 0;
}
