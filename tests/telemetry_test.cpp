// Telemetry subsystem tests: histogram percentiles against a sorted-sample
// oracle, concurrent-writer counter consistency, thread-pool introspection,
// and trace-context propagation through co-located and distributed calls on
// BOTH stacks (the paper's two software stacks share one trace format).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "counter/wsrf_counter.hpp"
#include "counter/wst_counter.hpp"
#include "net/tcp.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/propagation.hpp"
#include "telemetry/service.hpp"
#include "telemetry/trace.hpp"

namespace gs::telemetry {
namespace {

// --- metrics ---------------------------------------------------------------

TEST(Histogram, PercentilesMatchSortedSampleOracle) {
  Histogram h;
  std::mt19937 rng(42);
  std::uniform_int_distribution<std::uint64_t> dist(1, 50000);
  std::vector<std::uint64_t> samples;
  std::uint64_t sum = 0;
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t us = dist(rng);
    samples.push_back(us);
    sum += us;
    h.record(us);
  }
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.sum_us(), sum);

  std::sort(samples.begin(), samples.end());
  for (double p : {50.0, 90.0, 99.0}) {
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    double oracle = static_cast<double>(samples[rank - 1]);
    double estimate = h.percentile(p);
    // Buckets are powers of two: the estimate lands in the same bucket as
    // the true percentile, so it is within a factor of two (plus slack for
    // the rank convention at bucket edges).
    EXPECT_GE(estimate, oracle * 0.45) << "p" << p;
    EXPECT_LE(estimate, oracle * 2.2) << "p" << p;
  }
  EXPECT_LE(h.percentile(50), h.percentile(90));
  EXPECT_LE(h.percentile(90), h.percentile(99));
}

TEST(Histogram, SnapshotDeltaIsolatesAnInterval) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(10);  // earlier traffic
  HistogramSnapshot before = h.snapshot();
  for (int i = 0; i < 100; ++i) h.record(1000);  // the measured interval
  HistogramSnapshot after = h.snapshot();
  after -= before;
  EXPECT_EQ(after.count, 100u);
  EXPECT_EQ(after.sum_us, 100u * 1000u);
  // The interval's percentiles see only the 1000us samples.
  EXPECT_GT(after.percentile(50), 500.0);
}

TEST(Counter, ConcurrentWritersLoseNothing) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

// Sharded writes lose nothing: 4 threads record known values and the
// aggregated snapshot matches a sequential oracle exactly.
TEST(Histogram, ConcurrentWritersAggregateExactly) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kRecordsPerThread = 10'000;
  auto value = [](int t, int i) {
    return static_cast<std::uint64_t>(t * 7919 + i * 13) % 100'000;
  };
  HistogramSnapshot oracle;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRecordsPerThread; ++i) {
      std::uint64_t us = value(t, i);
      ++oracle.count;
      oracle.sum_us += us;
      ++oracle.buckets[Histogram::bucket_index(us)];
      oracle.min_us = std::min(oracle.min_us, us);
      oracle.max_us = std::max(oracle.max_us, us);
    }
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &value, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) h.record(value(t, i));
    });
  }
  for (auto& t : threads) t.join();

  HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, oracle.count);
  EXPECT_EQ(snap.sum_us, oracle.sum_us);
  EXPECT_EQ(snap.buckets, oracle.buckets);
  EXPECT_EQ(snap.min_us, oracle.min_us);
  EXPECT_EQ(snap.max_us, oracle.max_us);
  EXPECT_EQ(h.count(), oracle.count);
  EXPECT_EQ(h.sum_us(), oracle.sum_us);
}

// Shards come from thread ordinals handed out in order, so any 16 threads
// started one after another write 16 different shards (a hash of the thread
// id puts any two threads on one shard 1 time in 16).
TEST(Metrics, SixteenNewThreadsGetSixteenDistinctShards) {
  std::set<unsigned> shards;
  std::set<std::uint32_t> ordinals;
  for (unsigned i = 0; i < kMetricShards; ++i) {
    std::thread([&] {
      shards.insert(thread_shard());
      ordinals.insert(thread_ordinal());
    }).join();
  }
  EXPECT_EQ(shards.size(), kMetricShards);
  EXPECT_EQ(ordinals.size(), kMetricShards);
  EXPECT_EQ(*ordinals.rbegin() - *ordinals.begin(), kMetricShards - 1);
}

TEST(Registry, HandlesAreStableAndSnapshotsSubtract) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x.requests");
  EXPECT_EQ(&c, &reg.counter("x.requests"));  // same instrument on re-lookup
  c.add(5);
  reg.gauge("x.depth").set(3);
  reg.histogram("x.us").record(7);

  MetricsSnapshot before = reg.snapshot();
  c.add(2);
  reg.gauge("x.depth").set(9);
  reg.histogram("x.us").record(7);
  MetricsSnapshot d = delta(before, reg.snapshot());
  EXPECT_EQ(d.counters.at("x.requests"), 2u);
  EXPECT_EQ(d.gauges.at("x.depth"), 9);  // gauges are levels: keep `after`
  EXPECT_EQ(d.histograms.at("x.us").count, 1u);
}

TEST(ThreadPool, IntrospectionAndAttachedMetrics) {
  MetricsRegistry reg;
  common::ThreadPool pool(4);
  pool.attach_metrics(reg, "pool");
  constexpr int kTasks = 200;
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.drain();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(pool.tasks_submitted(), static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(pool.tasks_completed(), static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.active_workers(), 0u);

  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("pool.tasks"), static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(snap.gauges.at("pool.queue_depth"), 0);
  EXPECT_EQ(snap.gauges.at("pool.active_workers"), 0);
  EXPECT_EQ(snap.histograms.at("pool.queue_wait_us").count,
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(snap.histograms.at("pool.task_run_us").count,
            static_cast<std::uint64_t>(kTasks));
}

// --- tracing primitives ----------------------------------------------------

TEST(Trace, SpansNestOnOneThread) {
  TraceLog log(64);
  std::uint64_t outer_span, inner_parent, trace;
  {
    SpanScope outer("outer", "test", &log);
    trace = outer.context().trace_id;
    outer_span = outer.context().span_id;
    {
      SpanScope inner("inner", "test", &log);
      EXPECT_EQ(inner.context().trace_id, trace);
      inner_parent = inner.context().parent_span_id;
    }
  }
  EXPECT_EQ(inner_parent, outer_span);
  std::vector<SpanRecord> spans = log.spans_for(trace);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");  // inner closes first
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_span_id, 0u);  // trace root
}

// Capacity 3, five spans from two interleaved traces: the ring evicts the
// two oldest, and every reader sees the survivors oldest first across the
// wrap point.
TEST(Trace, LogEvictsOldestAcrossWraparound) {
  TraceLog log(3);
  for (int i = 1; i <= 5; ++i) {
    SpanRecord span;
    span.trace_id = i % 2 == 1 ? 1 : 2;
    span.span_id = static_cast<std::uint64_t>(i);
    span.name = "s" + std::to_string(i);
    log.record(std::move(span));
  }
  EXPECT_EQ(log.size(), 3u);

  std::vector<SpanRecord> all = log.snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "s3");
  EXPECT_EQ(all[1].name, "s4");
  EXPECT_EQ(all[2].name, "s5");

  // s3 sits in the last slot and s5 in the second: the filter must walk
  // from the oldest slot, not from index 0.
  std::vector<SpanRecord> odd = log.spans_for(1);
  ASSERT_EQ(odd.size(), 2u);
  EXPECT_EQ(odd[0].name, "s3");
  EXPECT_EQ(odd[1].name, "s5");
  std::vector<SpanRecord> even = log.spans_for(2);
  ASSERT_EQ(even.size(), 1u);
  EXPECT_EQ(even[0].name, "s4");

  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.snapshot().empty());
  EXPECT_TRUE(log.spans_for(1).empty());
}

TEST(Trace, AdoptRemoteRerootsAnotherThreadsSpans) {
  TraceLog log(64);
  SpanScope root("client.call", "test", &log);
  TraceContext remote = root.context();
  std::thread server([&] {
    SpanScope receive("server.receive", "test", &log);
    // The provisional span starts its own trace...
    EXPECT_NE(receive.context().trace_id, remote.trace_id);
    adopt_remote(remote);
    // ...and is re-rooted onto the caller's.
    EXPECT_EQ(receive.context().trace_id, remote.trace_id);
    EXPECT_EQ(receive.context().parent_span_id, remote.span_id);
    SpanScope handler("server.handler", "test", &log);
    EXPECT_EQ(handler.context().trace_id, remote.trace_id);
    EXPECT_EQ(handler.context().parent_span_id, receive.context().span_id);
  });
  server.join();
  EXPECT_EQ(log.spans_for(remote.trace_id).size(), 2u);
}

TEST(Trace, HeaderRoundTripsThroughEnvelopeSerialization) {
  soap::Envelope env;
  soap::MessageInfo info;
  info.to = "http://host.example/Service";
  info.action = "http://example.org/Act";
  info.message_id = "urn:uuid:1";
  env.write_addressing(info);

  TraceContext ctx{0x1234567890abcdefULL, 42, 7};
  write_trace_header(env, ctx);
  soap::Envelope parsed = soap::Envelope::from_xml(env.to_xml());
  auto read = read_trace_header(parsed);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->trace_id, ctx.trace_id);
  EXPECT_EQ(read->span_id, ctx.span_id);
  // The addressing headers survive alongside the trace header.
  soap::MessageInfo echoed = parsed.read_addressing();
  EXPECT_EQ(echoed.message_id, "urn:uuid:1");
}

// --- cross-stack propagation -----------------------------------------------

std::set<std::string> span_names(const std::vector<SpanRecord>& spans) {
  std::set<std::string> names;
  for (const SpanRecord& s : spans) names.insert(s.name);
  return names;
}

bool has_layer(const std::vector<SpanRecord>& spans, const std::string& layer) {
  for (const SpanRecord& s : spans) {
    if (s.layer == layer) return true;
  }
  return false;
}

// Requests through the virtual network run on the client thread, so the
// server-side spans nest directly under client.invoke and adopt_remote is a
// no-op — one trace either way.
TEST(Propagation, ColocatedCallsShareOneTraceOnBothStacks) {
  net::VirtualNetwork net{net::NetworkProfile::colocated()};
  net::VirtualCaller caller(net, {});
  net::VirtualCaller wsn_sink(net, {.keep_alive = false});
  net::VirtualCaller wse_sink(net, {.transport = net::TransportKind::kSoapTcp});
  counter::WsrfCounterDeployment wsrf({
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .write_through_cache = true,
      .container = {},
      .notification_sink = &wsn_sink,
      .address_base = "http://wsrf.example",
  });
  counter::WstCounterDeployment wst({
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .container = {},
      .notification_sink = &wse_sink,
      .address_base = "http://wst.example",
      .subscription_file = {},
  });
  net.bind("wsrf.example", wsrf.container());
  net.bind("wst.example", wst.container());

  for (bool use_wsrf : {true, false}) {
    std::uint64_t trace_id;
    {
      SpanScope root("test.root", "test");
      trace_id = root.context().trace_id;
      if (use_wsrf) {
        counter::WsrfCounterClient client(caller, wsrf.counter_address());
        client.create();
        client.set(5);
      } else {
        counter::WstCounterClient client(caller, wst.counter_address(),
                                         wst.source_address());
        client.create();
        client.set(5);
      }
    }
    std::vector<SpanRecord> spans = TraceLog::global().spans_for(trace_id);
    std::set<std::string> names = span_names(spans);
    EXPECT_TRUE(names.contains("client.invoke")) << use_wsrf;
    EXPECT_TRUE(names.contains("http.receive")) << use_wsrf;
    EXPECT_TRUE(names.contains("container.dispatch")) << use_wsrf;
    EXPECT_TRUE(names.contains("container.handler")) << use_wsrf;
    EXPECT_TRUE(has_layer(spans, "storage")) << use_wsrf;

    // Every http.receive nests under a client.invoke of the same trace.
    std::set<std::uint64_t> invoke_ids;
    for (const SpanRecord& s : spans) {
      if (s.name == "client.invoke") invoke_ids.insert(s.span_id);
    }
    for (const SpanRecord& s : spans) {
      if (s.name == "http.receive") {
        EXPECT_TRUE(invoke_ids.contains(s.parent_span_id));
      }
    }
  }
}

// A stage span's duration is its histogram's sample: one sample per span,
// recorded whether or not the span is logged.
TEST(Trace, SpanRecordsItsDurationIntoItsHistogram) {
  TraceLog log(8);
  Histogram stage;
  {
    SpanScope span("stage", "test", &log, &stage);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(stage.count(), 1u);
  EXPECT_EQ(stage.sum_us(),
            static_cast<std::uint64_t>(log.snapshot()[0].duration_us));
  EXPECT_GE(stage.sum_us(), 2000u);

  { SpanScope unlogged("stage", "test", nullptr, &stage); }
  EXPECT_EQ(stage.count(), 2u);
  EXPECT_EQ(log.size(), 1u);
}

// Ids come from per-thread sequences: spans opened concurrently on four
// threads still get pairwise-distinct, nonzero span and trace ids.
TEST(Trace, ConcurrentSpansGetDistinctNonzeroIds) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 10'000;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        SpanScope span("test.span", "test", nullptr);
        ids[t].push_back(span.context().span_id);
        ids[t].push_back(span.context().trace_id);  // a root: a fresh trace
      }
    });
  }
  for (auto& t : threads) t.join();

  std::set<std::uint64_t> distinct;
  for (const auto& per_thread : ids) {
    for (std::uint64_t id : per_thread) {
      EXPECT_NE(id, 0u);
      distinct.insert(id);
    }
  }
  EXPECT_EQ(distinct.size(), 2u * kThreads * kSpansPerThread);
}

// Once the ring has wrapped, a closing span is written into the evicted
// slot in place; readers still see exactly the newest spans, intact.
TEST(Trace, SpansRecordedAfterWraparoundKeepTheirFields) {
  TraceLog log(2);
  std::vector<TraceContext> contexts;
  for (const char* name : {"a.short", "container.dispatch", "b", "container.handler"}) {
    SpanScope span(name, "layer.with.a.long.name", &log);
    contexts.push_back(span.context());
  }
  std::vector<SpanRecord> kept = log.snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].name, "b");
  EXPECT_EQ(kept[0].span_id, contexts[2].span_id);
  EXPECT_EQ(kept[1].name, "container.handler");
  EXPECT_EQ(kept[1].span_id, contexts[3].span_id);
  EXPECT_EQ(kept[1].trace_id, contexts[3].trace_id);
  EXPECT_EQ(kept[1].layer, "layer.with.a.long.name");
}

// Four writer threads record through their own shards while a reader
// merges the log. Writers move in rounds separated by a barrier, so every
// span of round r closes before any of round r+1 and the newest `capacity`
// spans are exactly the last capacity / (threads * per_round) rounds. Each
// concurrent read holds at most `capacity` intact spans (name, layer and
// root identity all of one span), and each thread's spans in its own close
// order; the read after the writers finish holds exactly the newest ones,
// even though their threads have exited.
TEST(Trace, WritersRacingAReaderKeepTheNewestSpansIntact) {
  constexpr int kThreads = 4;
  constexpr int kPerRound = 16;
  constexpr int kRounds = 200;
  constexpr std::size_t kCapacity = 256;  // the last 4 rounds
  static const char* const kNames[kThreads] = {"writer.0", "writer.1",
                                               "writer.2", "writer.3"};
  TraceLog log(kCapacity);
  std::vector<std::vector<std::uint64_t>> closed(kThreads);
  std::barrier round(kThreads);
  std::atomic<bool> done{false};

  std::thread reader([&] {
    while (!done.load()) {
      std::vector<SpanRecord> spans = log.snapshot();
      ASSERT_LE(spans.size(), kCapacity);
      std::map<std::string, std::int64_t> last_start;
      for (const SpanRecord& span : spans) {
        ASSERT_TRUE(span.name.starts_with("writer.")) << span.name;
        ASSERT_EQ(span.layer, "test");
        ASSERT_EQ(span.parent_span_id, 0u);
        ASSERT_NE(span.trace_id, 0u);
        ASSERT_GE(span.duration_us, 0);
        // One thread's spans do not nest, so they close in start order.
        auto [it, fresh] = last_start.try_emplace(span.name, span.start_us);
        ASSERT_LE(it->second, span.start_us) << span.name;
        it->second = span.start_us;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kPerRound; ++i) {
          SpanScope span(kNames[t], "test", &log);
          closed[t].push_back(span.context().span_id);
        }
        round.arrive_and_wait();
      }
    });
  }
  for (auto& w : writers) w.join();
  done = true;
  reader.join();

  std::vector<SpanRecord> kept = log.snapshot();
  ASSERT_EQ(kept.size(), kCapacity);
  EXPECT_EQ(log.size(), kCapacity);
  const std::size_t kKeptRounds = kCapacity / (kThreads * kPerRound);
  std::map<std::uint64_t, std::size_t> round_of;  // span id -> round
  std::map<std::string, std::vector<std::uint64_t>> kept_by_thread;
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < closed[t].size(); ++i) {
      round_of[closed[t][i]] = i / kPerRound;
    }
  }
  std::size_t previous_round = 0;
  for (const SpanRecord& span : kept) {
    ASSERT_TRUE(round_of.contains(span.span_id));
    std::size_t r = round_of[span.span_id];
    EXPECT_GE(r, kRounds - kKeptRounds);
    EXPECT_GE(r, previous_round) << "a span closed in an earlier round came later";
    previous_round = r;
    kept_by_thread[span.name].push_back(span.span_id);
  }
  for (int t = 0; t < kThreads; ++t) {
    std::vector<std::uint64_t> newest(closed[t].end() - kKeptRounds * kPerRound,
                                      closed[t].end());
    EXPECT_EQ(kept_by_thread[kNames[t]], newest) << kNames[t];
  }
}

// Every instrumented stage of a real request path records exactly one
// histogram sample per span it opens.
TEST(Trace, StageHistogramsCountOneSamplePerStageSpan) {
  net::VirtualNetwork net{net::NetworkProfile::colocated()};
  net::VirtualCaller caller(net, {});
  net::VirtualCaller wsn_sink(net, {.keep_alive = false});
  counter::WsrfCounterDeployment wsrf({
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .write_through_cache = true,
      .container = {},
      .notification_sink = &wsn_sink,
      .address_base = "http://wsrf.example",
  });
  net.bind("wsrf.example", wsrf.container());

  MetricsSnapshot before = MetricsRegistry::global().snapshot();
  std::uint64_t trace_id;
  {
    SpanScope root("test.root", "test");
    trace_id = root.context().trace_id;
    counter::WsrfCounterClient client(caller, wsrf.counter_address());
    client.create();
    client.set(5);
    EXPECT_EQ(client.get(), 5);
  }
  MetricsSnapshot d = delta(before, MetricsRegistry::global().snapshot());
  std::map<std::string, std::uint64_t> spans;
  for (const SpanRecord& s : TraceLog::global().spans_for(trace_id)) {
    ++spans[s.name];
  }

  EXPECT_EQ(spans["container.dispatch"], 3u);
  EXPECT_EQ(d.counters["container.requests"], 3u);
  EXPECT_EQ(d.histograms["container.dispatch_us"].count, 3u);
  EXPECT_EQ(d.histograms["container.handler_us"].count,
            spans["container.handler"]);
  EXPECT_EQ(d.counters["net.http.requests"], spans["http.receive"]);
  EXPECT_EQ(d.histograms["net.http.request_us"].count, spans["http.receive"]);
  EXPECT_GT(spans["xmldb.store"], 0u);
  for (const std::string op : {"store", "load", "remove", "query"}) {
    EXPECT_EQ(d.histograms["xmldb." + op + "_us"].count, spans["xmldb." + op])
        << op;
  }
}

// The deployment needs its base URL before the container can exist; an
// ephemeral-port server is created first against this forwarder.
class ForwardingEndpoint final : public net::Endpoint {
 public:
  net::Endpoint* target = nullptr;
  net::HttpResponse handle(const net::HttpRequest& request) override {
    return target->handle(request);
  }
};

// Bare-envelope proxy for querying the telemetry resource over the wire.
class RawProxy : public container::ProxyBase {
 public:
  using container::ProxyBase::ProxyBase;
  soap::Envelope call_action(const std::string& action,
                             std::unique_ptr<xml::Element> payload = nullptr) {
    return invoke(action, std::move(payload));
  }
};

const xml::Element* find_trace(const xml::Element& telemetry_doc,
                               std::uint64_t trace_id) {
  for (const xml::Element* el : telemetry_doc.child_elements()) {
    if (el->name().local() == "Trace" &&
        el->attr("id") == std::to_string(trace_id)) {
      return el;
    }
  }
  return nullptr;
}

// The issue's acceptance scenario: a distributed SetValue over real sockets
// produces ONE trace with at least the http-receive, dispatch/handler, and
// storage spans — on both stacks — and the trace plus the per-layer metrics
// are queryable over the wire via WSRF GetResourceProperty(Document) AND
// WS-Transfer Get.
TEST(Propagation, DistributedSetProducesOneTraceAcrossLayersOnBothStacks) {
  net::VirtualNetwork local;  // in-process fabric for the notification sinks
  net::VirtualCaller wsn_sink(local, {.keep_alive = false});
  net::VirtualCaller wse_sink(local, {.transport = net::TransportKind::kSoapTcp});

  ForwardingEndpoint fwd_wsrf;
  net::HttpServer server_wsrf(fwd_wsrf, 0, 2);
  counter::WsrfCounterDeployment wsrf({
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .write_through_cache = true,
      .container = {},
      .notification_sink = &wsn_sink,
      .address_base = server_wsrf.base_url(),
  });
  fwd_wsrf.target = &wsrf.container();

  ForwardingEndpoint fwd_wst;
  net::HttpServer server_wst(fwd_wst, 0, 2);
  counter::WstCounterDeployment wst({
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .container = {},
      .notification_sink = &wse_sink,
      .address_base = server_wst.base_url(),
      .subscription_file = {},
  });
  fwd_wst.target = &wst.container();

  net::TcpSoapCaller wire;
  const std::string rp_ns(soap::ns::kWsrfRp);
  const std::string wst_ns(soap::ns::kTransfer);

  for (bool use_wsrf : {true, false}) {
    std::uint64_t trace_id;
    {
      SpanScope root("test.root", "test");
      trace_id = root.context().trace_id;
      if (use_wsrf) {
        counter::WsrfCounterClient client(wire, wsrf.counter_address());
        client.create();
        client.set(5);
        EXPECT_EQ(client.get(), 5);
      } else {
        counter::WstCounterClient client(wire, wst.counter_address(),
                                         wst.source_address());
        client.create();
        client.set(5);
        EXPECT_EQ(client.get(), 5);
      }
    }

    std::vector<SpanRecord> spans = TraceLog::global().spans_for(trace_id);
    std::set<std::string> names = span_names(spans);
    EXPECT_TRUE(names.contains("client.invoke")) << use_wsrf;
    EXPECT_TRUE(names.contains("http.receive")) << use_wsrf;
    EXPECT_TRUE(names.contains("container.dispatch")) << use_wsrf;
    EXPECT_TRUE(has_layer(spans, "storage")) << use_wsrf;
    EXPECT_GE(spans.size(), 3u);

    // The server-side spans were re-rooted onto the client's trace: every
    // http.receive (recorded on a server worker thread) hangs off a
    // client.invoke span, and container.dispatch off http.receive.
    std::set<std::uint64_t> invoke_ids, receive_ids;
    for (const SpanRecord& s : spans) {
      if (s.name == "client.invoke") invoke_ids.insert(s.span_id);
      if (s.name == "http.receive") receive_ids.insert(s.span_id);
    }
    for (const SpanRecord& s : spans) {
      if (s.name == "http.receive") {
        EXPECT_TRUE(invoke_ids.contains(s.parent_span_id)) << use_wsrf;
      }
      if (s.name == "container.dispatch") {
        EXPECT_TRUE(receive_ids.contains(s.parent_span_id)) << use_wsrf;
      }
    }

    // Query the live telemetry resource over the wire — the WSRF way and
    // the WS-Transfer way return the same document.
    const std::string telemetry_address =
        (use_wsrf ? wsrf.telemetry_address() : wst.telemetry_address());
    RawProxy proxy(wire, soap::EndpointReference(telemetry_address));

    soap::Envelope doc_response = proxy.call_action(
        rp_ns + "/GetResourcePropertyDocument");
    const xml::Element* doc =
        doc_response.payload()->child({kTelemetryNs, "Telemetry"});
    ASSERT_NE(doc, nullptr) << use_wsrf;
    ASSERT_NE(find_trace(*doc, trace_id), nullptr) << use_wsrf;
    EXPECT_GE(find_trace(*doc, trace_id)->child_elements().size(), 3u);

    soap::Envelope get_response = proxy.call_action(wst_ns + "/Get");
    const xml::Element* rep = get_response.payload();
    ASSERT_NE(rep, nullptr);
    EXPECT_EQ(rep->name().local(), "Telemetry");
    ASSERT_NE(find_trace(*rep, trace_id), nullptr) << use_wsrf;

    // GetResourceProperty selects individual metrics by name.
    auto prop = std::make_unique<xml::Element>(
        xml::QName{soap::ns::kWsrfRp, "GetResourceProperty"});
    prop->set_text("container.requests");
    soap::Envelope prop_response =
        proxy.call_action(rp_ns + "/GetResourceProperty", std::move(prop));
    const xml::Element* counter_el =
        prop_response.payload()->child({kTelemetryNs, "Counter"});
    ASSERT_NE(counter_el, nullptr);
    EXPECT_GT(std::stoull(counter_el->text()), 0u);
  }

  server_wsrf.stop();
  server_wst.stop();
}

}  // namespace
}  // namespace gs::telemetry
