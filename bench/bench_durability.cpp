// Durability cost: what does the WAL charge for surviving kill -9?
//
// The storage engine's pitch (DESIGN.md §13) is that group commit makes
// durable writes affordable: a write window shares one append + one sync,
// so the per-document cost falls as the window widens. Machine-checked
// here with the document-store workload the container actually runs —
// serialize an XML document, hand the octets to the backend:
//
//   throughput  pipelined store throughput against the WalBackend at
//               write windows of 1 / 8 / 64 documents (put_async + drain
//               per window; window 1 is the per-op durable ack), vs. the
//               MemoryBackend storing the same serialized documents (the
//               no-durability ceiling). Gate: at window 64 the WAL must
//               hold >= 50% of the memory backend's store throughput —
//               durability may cost at most half.
//   recovery    cold-start replay of a 10k-document log: construct a
//               fresh engine over the same medium and time recover().
//               Gate: every record applied, and the wall time is reported
//               as recovery_ms for bench_diff.py to hold steady.
//
// Hand-rolled main (the unit of measurement is a pipelined trial).
// Writes BENCH_durability.json; exits nonzero when a gate fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "telemetry/metrics.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"
#include "xmldb/backend.hpp"
#include "xmldb/log_device.hpp"
#include "xmldb/wal.hpp"

namespace {

using namespace gs;
using Clock = std::chrono::steady_clock;

constexpr int kTotalDocs = 12'800;     // documents stored per rep
constexpr int kReps = 3;               // best-of, both sides (noise guard)
constexpr int kRecoveryDocs = 10'000;
constexpr double kMinThroughputShare = 0.5;  // wal64 / memory64 floor

std::unique_ptr<xml::Element> make_doc() {
  return xml::parse_element(
      "<doc><owner>CN=bench,O=VO</owner>"
      "<body>0123456789012345678901234567890123456789012345678901234567890"
      "123456789</body><seq>0</seq></doc>");
}

/// One pass of pipelined document-store throughput: serialize + write
/// kTotalDocs documents, acknowledging durability every `window` documents
/// via `barrier` (the WAL's drain(); a no-op for the memory backend). Both
/// sides pay the same serialization — the gate compares storage engines,
/// not serializers.
template <typename Put, typename Barrier>
double store_ops_per_sec(int window, Put put, Barrier barrier) {
  auto doc = make_doc();
  xml::Element* seq = doc->child_local("seq");
  auto t0 = Clock::now();
  for (int i = 0; i < kTotalDocs; ++i) {
    seq->set_text(std::to_string(i));
    put("doc-" + std::to_string(i % 256), xml::write(*doc));
    if ((i + 1) % window == 0) barrier();
  }
  barrier();
  double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(kTotalDocs) / seconds;
}

struct Trial {
  const char* name;
  int window;
  double wal_ops = 0.0;
  double memory_ops = 0.0;
};

}  // namespace

int main() {
  std::printf("durable document-store throughput, %d docs per trial\n",
              kTotalDocs);

  Trial trials[] = {{"batch1", 1}, {"batch8", 8}, {"batch64", 64}};
  for (Trial& trial : trials) {
    bench::BenchTelemetry::instance().sample_series();
    auto before = telemetry::MetricsRegistry::global().snapshot();
    // Best of kReps passes per side, the WAL and memory passes taking
    // turns: a single 10ms scheduling blip is a 100% error at these trial
    // lengths, and alternating puts the host's drift on both sides of the
    // ratio instead of all on one.
    xmldb::WalBackend wal(std::make_shared<xmldb::MemoryLogDevice>(),
                          std::make_shared<xmldb::MemoryLogDevice>());
    xmldb::MemoryBackend memory;
    for (int rep = 0; rep < kReps; ++rep) {
      trial.wal_ops = std::max(
          trial.wal_ops,
          store_ops_per_sec(
              trial.window,
              [&wal](const std::string& id, std::string octets) {
                wal.put_async("bench", id, octets);
              },
              [&wal] { wal.drain(); }));
      trial.memory_ops = std::max(
          trial.memory_ops,
          store_ops_per_sec(
              trial.window,
              [&memory](const std::string& id, std::string octets) {
                memory.put("bench", id, octets);
              },
              [] {}));
    }
    bench::BenchTelemetry::instance().add(
        std::string("durability/wal_store_") + trial.name, kTotalDocs,
        telemetry::delta(before,
                         telemetry::MetricsRegistry::global().snapshot()),
        trial.wal_ops,
        {{"memory_ops_per_sec", trial.memory_ops},
         {"window", static_cast<double>(trial.window)}});
    std::printf("  %-8s wal=%9.0f docs/s  memory=%9.0f docs/s  (%.0f%%)\n",
                trial.name, trial.wal_ops, trial.memory_ops,
                100.0 * trial.wal_ops / trial.memory_ops);
  }

  // Cold recovery: populate a medium, then time a fresh engine's replay.
  bench::BenchTelemetry::instance().sample_series();
  auto log = std::make_shared<xmldb::MemoryLogDevice>();
  auto snap = std::make_shared<xmldb::MemoryLogDevice>();
  {
    xmldb::WalBackend wal(log, snap);
    auto doc = make_doc();
    for (int i = 0; i < kRecoveryDocs; ++i) {
      wal.put_async("bench", "doc-" + std::to_string(i), xml::write(*doc));
    }
    wal.drain();
  }
  auto boot_log = std::make_shared<xmldb::MemoryLogDevice>(log->contents());
  auto boot_snap = std::make_shared<xmldb::MemoryLogDevice>(snap->contents());
  auto before = telemetry::MetricsRegistry::global().snapshot();
  auto t0 = Clock::now();
  auto recovered = std::make_unique<xmldb::WalBackend>(boot_log, boot_snap);
  double recovery_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  std::uint64_t applied = recovered->stats().recovered_records;
  bench::BenchTelemetry::instance().add(
      "durability/recovery_10k", kRecoveryDocs,
      telemetry::delta(before,
                       telemetry::MetricsRegistry::global().snapshot()),
      0.0,
      {{"recovery_ms", recovery_ms},
       {"docs", static_cast<double>(kRecoveryDocs)}});
  std::printf("  recovery: %d docs in %.1f ms (%llu records applied)\n",
              kRecoveryDocs, recovery_ms,
              static_cast<unsigned long long>(applied));

  bench::BenchTelemetry::instance().sample_series();
  bench::BenchTelemetry::instance().write("durability");

  bool ok = true;
  const Trial& big = trials[2];
  double share = big.wal_ops / big.memory_ops;
  if (share < kMinThroughputShare) {
    std::printf("FAIL: wal store throughput at window 64 %.0f docs/s is "
                "%.0f%% of the memory backend's %.0f docs/s (floor %.0f%%)\n",
                big.wal_ops, 100.0 * share, big.memory_ops,
                100.0 * kMinThroughputShare);
    ok = false;
  } else {
    std::printf("PASS: wal holds %.0f%% of memory-backend store throughput "
                "at window 64 (floor %.0f%%)\n",
                100.0 * share, 100.0 * kMinThroughputShare);
  }
  if (applied != static_cast<std::uint64_t>(kRecoveryDocs)) {
    std::printf("FAIL: recovery applied %llu of %d records\n",
                static_cast<unsigned long long>(applied), kRecoveryDocs);
    ok = false;
  } else {
    std::printf("PASS: recovery replayed all %d records in %.1f ms\n",
                kRecoveryDocs, recovery_ms);
  }
  return ok ? 0 : 1;
}
