// WAL-backed storage engine: the durable Backend.
//
// ROADMAP item 3 makes durability the prerequisite for federation: "once
// acked writes survive kill -9, replication is ship the same log to a
// follower". This backend is that durability half. Every put/remove is a
// CRC-framed record appended to a LogDevice and stamped, one batch at a
// time, with a commit marker. Recovery replays snapshot + log tail and
// applies only batches whose commit marker made it to the medium — so
// after a crash at ANY byte offset, exactly the acknowledged writes are
// visible: an acked write implies its batch's marker is durable, and a
// batch whose marker is missing (the in-flight one) is discarded
// wholesale, never leaking a write whose caller saw an exception.
//
// Group commit runs on the writers' own threads (leader/follower, as in a
// WriteThread or a binlog group commit): a writer queues its record and,
// if no commit is in flight, becomes the leader. The leader takes the
// whole queue and, with no lock held, does ONE append + ONE sync + ONE
// commit marker for it, applies the batch to the table, resolves every
// follower's ack, and hands the turn back. Writers that queued during that
// commit form the next batch, led by one of them. An uncontended write
// therefore commits with no thread hop, and contended writers still share
// one sync.
//
// Reads are served from the in-memory table (updated only after the log
// sync, so the table never runs ahead of the medium). When the log
// exceeds a threshold, the leader compacts before handing the turn back:
// the whole table is written as a versioned snapshot (atomically, via
// LogDevice::reset) and the log is truncated. A crash between those two
// steps is safe — the old log replayed over the new snapshot is
// idempotent.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "xmldb/backend.hpp"
#include "xmldb/log_device.hpp"

namespace gs::telemetry {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace gs::telemetry

namespace gs::xmldb {

/// CRC32 (IEEE 802.3) over `bytes` — the record checksum.
std::uint32_t crc32(std::string_view bytes);

struct WalOptions {
  /// Compaction trigger: when the log grows past this, the leader that
  /// crossed it snapshots the table and truncates the log.
  std::uint64_t compact_threshold_bytes = 8ull << 20;
  /// Time source for snapshot timestamps and recovery accounting (tests
  /// pass a ManualClock for deterministic headers).
  const common::Clock* clock = &common::RealClock::instance();
  /// Metrics destination; nullptr = the process-wide registry.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Counters a recovery/commit test reads directly (the same figures are
/// published as xmldb.wal_* metrics).
struct WalStats {
  std::uint64_t recovered_records = 0;   // applied during open
  std::uint64_t corrupt_records = 0;     // CRC/frame failures skipped
  std::uint64_t discarded_records = 0;   // trailing uncommitted batch
  std::uint64_t compactions = 0;
  std::uint64_t batches = 0;             // group commits synced
  std::uint64_t records = 0;             // records logged since open
};

class WalBackend final : public Backend {
 public:
  /// Opens (and recovers) the engine over the two devices. The devices
  /// are shared so a crash test can keep them across backend lifetimes —
  /// the medium survives the process.
  WalBackend(std::shared_ptr<LogDevice> log,
             std::shared_ptr<LogDevice> snapshot, WalOptions options = {});
  /// File engine under `dir` (wal.log + wal.snap).
  static std::unique_ptr<WalBackend> open(const std::filesystem::path& dir,
                                          WalOptions options = {});
  ~WalBackend() override;

  // Backend. put/remove return only after the record's batch is synced
  // and applied (the durability ack); they throw LogDeviceError when the
  // device has failed — such writes are unacknowledged.
  void put(const std::string& collection, const std::string& id,
           const std::string& octets) override;
  /// Pipelined durable write: enqueues the record and returns without
  /// waiting for the sync — the bulk path (import, recovery replay, the
  /// ROADMAP-3 follower shipping the same log), where the next leader
  /// commits the whole window as one append+sync. Durability is deferred:
  /// nothing is acknowledged until drain() returns.
  void put_async(const std::string& collection, const std::string& id,
                 const std::string& octets);
  /// Barrier for put_async: commits everything queued, leading on the
  /// caller's thread, and returns once every previously enqueued write is
  /// synced and applied. Throws LogDeviceError if the device died first —
  /// those writes were never acknowledged. Do not call while commits are
  /// paused.
  void drain();
  std::optional<std::string> get(const std::string& collection,
                                 const std::string& id) override;
  bool remove(const std::string& collection, const std::string& id) override;
  std::vector<std::string> list(const std::string& collection) override;
  bool contains(const std::string& collection, const std::string& id) override;

  /// Forces a compaction: waits for the turn, then leads a commit of
  /// whatever is queued with compaction forced (tests; the threshold path
  /// is the production trigger). Blocks until done.
  void compact();

  /// Test hooks: with commits paused nobody may lead, so concurrent
  /// writers pile up and resume() releases them as one deterministic
  /// batch; pending() is how many writes are enqueued awaiting commit.
  void pause_commits();
  void resume_commits();
  std::size_t pending() const;

  WalStats stats() const;
  std::uint64_t log_bytes() const { return log_->size(); }
  std::uint64_t snapshot_bytes() const { return snapshot_->size(); }

 private:
  /// A synchronous writer's result slot. It lives on the writer's stack and
  /// is written by the leader under queue_mu_; the writer returns only
  /// once `done` is set, so the slot outlives every write to it.
  struct Ack {
    bool done = false;
    bool failed = false;
    bool result = false;  // remove: whether the id was present at apply
  };
  struct Pending {
    /// The encoded record — the only copy of its bytes. Applying it reads
    /// the collection, id and octets back out of the frame.
    std::string frame;
    Ack* ack = nullptr;  // null for put_async records (acked by drain())
    bool result = false;
    std::chrono::steady_clock::time_point enqueued;
  };
  using Docs = std::map<std::string, std::string, std::less<>>;

  void recover();
  /// Queues a synchronous write and returns its apply-time result once its
  /// batch is durable, leading that batch if no one else does.
  bool write(std::string frame);
  void enqueue_locked(std::string frame, Ack* ack);
  /// Takes the turn with `lock` held (and returns with it held): commits
  /// the queued batch, compacts if forced or past the threshold, then
  /// resolves the batch and releases the turn, even if an exception
  /// escapes.
  void lead(std::unique_lock<std::mutex>& lock, bool force_compact);
  /// Appends + syncs batch_ with its commit marker, then applies it to
  /// the table. Throws on any failure.
  void commit_batch();
  /// Marks `records` resolved (failed, or with their apply-time result).
  static void resolve(std::vector<Pending>& records, bool failed);
  void do_compact();
  /// Applies one put/remove to the table (table_mu_ held); returns
  /// whether a remove found its id.
  bool apply_locked(std::uint8_t op, std::string_view collection,
                    std::string_view id, std::string_view octets);

  std::shared_ptr<LogDevice> log_;
  std::shared_ptr<LogDevice> snapshot_;
  WalOptions options_;

  mutable std::mutex table_mu_;
  std::map<std::string, Docs, std::less<>> table_;

  mutable std::mutex queue_mu_;
  // Signalled when a leader hands the turn back, and on resume_commits().
  std::condition_variable turn_cv_;
  std::vector<Pending> queue_;
  // The batch in flight and its log bytes: owned by the leader, the only
  // thread that touches the log and snapshot devices. Swapping batch_ with
  // queue_, and clearing log_buf_, recycle the buffers across batches.
  std::vector<Pending> batch_;
  std::string log_buf_;
  bool leader_ = false;
  bool paused_ = false;
  bool device_failed_ = false;

  mutable std::mutex stats_mu_;
  WalStats stats_;

  // Metric handles (resolved once; hot-path writes are lock-free).
  telemetry::Counter& records_logged_;
  telemetry::Counter& batches_synced_;
  telemetry::Counter& corrupt_records_;
  telemetry::Counter& compactions_;
  telemetry::Counter& recovered_records_;
  telemetry::Histogram& batch_size_;
  telemetry::Histogram& commit_us_;
  telemetry::Histogram& recovery_us_;
  telemetry::Gauge& log_bytes_gauge_;
  telemetry::Gauge& snapshot_bytes_gauge_;
};

}  // namespace gs::xmldb
