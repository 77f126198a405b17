// Crash-safety tests for the durable state layer: the WAL engine's
// group-commit/recovery contract ("after a crash at any byte offset,
// exactly the acknowledged writes are visible"), snapshot compaction,
// DurableStore schema headers, and the container recovery phase that
// rehydrates WSRF resources and WSN/WSE subscriptions after a simulated
// kill -9. Crashes are injected through MemoryLogDevice's seeded kill
// points; "reboot" means constructing a fresh engine over what the crash
// left durable. FileLogDevice gets an
// append/sync/reset round trip across reopens in a temporary directory, and
// a recovery that must fail when its log file is gone or unreadable, and a
// write failure (on /dev/full) that fails the device; the file engine
// (WalBackend::open) gets a reopen after compaction.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "counter/wsrf_counter.hpp"
#include "counter/wst_counter.hpp"
#include "wsn/consumer.hpp"
#include "wsrf/resource.hpp"
#include "wst/service.hpp"
#include "xmldb/database.hpp"
#include "xmldb/durable_store.hpp"
#include "xmldb/log_device.hpp"
#include "xmldb/wal.hpp"

namespace gs {
namespace {

using xmldb::LogDeviceError;
using xmldb::MemoryLogDevice;
using xmldb::WalBackend;
using xmldb::WalOptions;

// The persistent medium: one log device + one snapshot device. The
// devices outlive any WalBackend, exactly like a disk outlives a
// process; after_crash() is the next boot's view of them.
struct Medium {
  std::shared_ptr<MemoryLogDevice> log = std::make_shared<MemoryLogDevice>();
  std::shared_ptr<MemoryLogDevice> snap = std::make_shared<MemoryLogDevice>();

  Medium() = default;
  Medium(std::string log_bytes, std::string snap_bytes)
      : log(std::make_shared<MemoryLogDevice>(std::move(log_bytes))),
        snap(std::make_shared<MemoryLogDevice>(std::move(snap_bytes))) {}

  /// What a machine that lost power sees on the next boot: the durable
  /// bytes, on healthy devices.
  Medium after_crash() const { return Medium(log->contents(), snap->contents()); }

  std::unique_ptr<WalBackend> open(WalOptions options = {}) const {
    return std::make_unique<WalBackend>(log, snap, options);
  }
};

// --- the file device ---------------------------------------------------------------

/// A fresh directory under the system temp dir, removed with the fixture.
struct TempDir {
  std::filesystem::path path;
  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "gs_filelog_XXXXXX").string();
    if (!::mkdtemp(pattern.data())) throw std::runtime_error("mkdtemp failed");
    path = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(FileLogDevice, AppendSyncResetSurviveReopen) {
  TempDir dir;
  const std::filesystem::path log = dir.path / "wal" / "log";
  {
    xmldb::FileLogDevice device(log);
    device.append("abc");
    EXPECT_EQ(device.size(), 0u);  // size counts synced bytes only
    device.sync();
    device.append("de");
    device.sync();
    EXPECT_EQ(device.size(), 5u);
    EXPECT_EQ(device.contents(), "abcde");
  }
  {
    xmldb::FileLogDevice device(log);  // reopen: the synced log is there
    EXPECT_EQ(device.size(), 5u);
    EXPECT_EQ(device.contents(), "abcde");
    device.reset("xy");
    EXPECT_EQ(device.size(), 2u);
    device.append("z");
    device.sync();
  }
  xmldb::FileLogDevice device(log);
  EXPECT_EQ(device.contents(), "xyz");
  EXPECT_EQ(device.size(), 3u);
  EXPECT_FALSE(std::filesystem::exists(log.string() + ".tmp"));
}

// The device's constructor creates its file, so a log file that vanished or
// was replaced by a directory under a live device is a fault of the medium:
// recovery throws instead of starting without the documents.
TEST(FileLogDevice, UnreadableLogFailsRecovery) {
  TempDir dir;
  const std::filesystem::path log_path = dir.path / "wal.log";
  auto log = std::make_shared<xmldb::FileLogDevice>(log_path);
  auto snapshot = std::make_shared<xmldb::FileLogDevice>(dir.path / "wal.snap");
  {
    WalBackend wal(log, snapshot);
    wal.put("c", "doc", "<a/>");
  }
  {
    WalBackend reopened(log, snapshot);
    EXPECT_EQ(reopened.get("c", "doc"), "<a/>");
  }

  std::filesystem::remove(log_path);
  EXPECT_THROW(log->contents(), LogDeviceError);
  EXPECT_THROW({ WalBackend wal(log, snapshot); }, LogDeviceError);

  std::filesystem::create_directory(log_path);
  EXPECT_THROW(log->contents(), LogDeviceError);
  EXPECT_THROW({ WalBackend wal(log, snapshot); }, LogDeviceError);
}

// A write the medium refuses: /dev/full fails every write with ENOSPC.
// The first append throws, and the device has failed, so every later
// append and sync throws too. (Never read /dev/full: reads never end.)
TEST(FileLogDevice, WriteFailureFailsTheDevice) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  xmldb::FileLogDevice device("/dev/full");
  EXPECT_THROW(device.append("record"), LogDeviceError);
  EXPECT_THROW(device.append("next"), LogDeviceError);
  EXPECT_THROW(device.sync(), LogDeviceError);
  EXPECT_EQ(device.size(), 0u);
}

// The file engine a deployment would run: wal.log and wal.snap under one
// directory. A small compaction threshold splits the documents between the
// snapshot and the log, with an overwrite and a remove of snapshot
// documents in the log after the last compaction. A fresh open of the
// directory returns every document byte for byte.
TEST(Wal, OpenRecoversEveryDocumentFromLogAndSnapshotFiles) {
  TempDir dir;
  const std::filesystem::path engine = dir.path / "engine";
  const WalOptions options{.compact_threshold_bytes = 1024};
  std::map<std::string, std::string> expected;
  {
    std::unique_ptr<WalBackend> wal = WalBackend::open(engine, options);
    for (int i = 0; i < 12; ++i) {
      std::string id = "d" + std::to_string(i);
      std::string octets = "<doc n=\"" + std::to_string(i) + "\">" +
                           std::string(150, static_cast<char>('a' + i)) +
                           "\xc3\xa9\r\n</doc>";
      wal->put("docs", id, octets);
      expected[id] = octets;
    }
    ASSERT_GE(wal->stats().compactions, 1u);
    wal->put("docs", "d0", "<doc>rewritten</doc>");
    expected["d0"] = "<doc>rewritten</doc>";
    ASSERT_TRUE(wal->remove("docs", "d1"));
    expected.erase("d1");
    EXPECT_GT(wal->log_bytes(), 0u);
    EXPECT_GT(wal->snapshot_bytes(), 0u);
  }
  EXPECT_GT(std::filesystem::file_size(engine / "wal.log"), 0u);
  EXPECT_GT(std::filesystem::file_size(engine / "wal.snap"), 0u);

  std::unique_ptr<WalBackend> reopened = WalBackend::open(engine, options);
  EXPECT_GT(reopened->stats().recovered_records, 0u);
  EXPECT_EQ(reopened->stats().corrupt_records, 0u);
  EXPECT_EQ(reopened->list("docs").size(), expected.size());
  EXPECT_FALSE(reopened->contains("docs", "d1"));
  for (const auto& [id, octets] : expected) {
    EXPECT_EQ(reopened->get("docs", id), octets) << id;
  }
}

// --- the WAL engine itself ---------------------------------------------------------

TEST(Wal, AckedWritesSurviveCrash) {
  Medium medium;
  {
    auto wal = medium.open();
    wal->put("c", "a", "<a/>");
    wal->put("c", "b", "<b/>");
    wal->put("other", "a", "<x/>");
    EXPECT_TRUE(wal->remove("c", "b"));
    medium.log->crash_now();  // power off; nothing depends on the dtor
  }
  auto wal = medium.after_crash().open();
  EXPECT_EQ(wal->get("c", "a"), "<a/>");
  EXPECT_FALSE(wal->get("c", "b").has_value());
  EXPECT_EQ(wal->get("other", "a"), "<x/>");
  EXPECT_EQ(wal->stats().recovered_records, 4u);  // 3 puts + 1 remove
  EXPECT_EQ(wal->stats().corrupt_records, 0u);
}

TEST(Wal, GroupCommitCoalescesConcurrentWriters) {
  Medium medium;
  auto wal = medium.open();
  wal->pause_commits();
  std::vector<std::thread> writers;
  for (int i = 0; i < 8; ++i) {
    writers.emplace_back([&, i] {
      wal->put("c", "id" + std::to_string(i), "<v/>");
    });
  }
  // Writers block on their durability ack while commits are paused; wait
  // for all of them to reach the queue, then release them as one batch.
  while (wal->pending() < 8) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wal->resume_commits();
  for (auto& w : writers) w.join();

  xmldb::WalStats st = wal->stats();
  EXPECT_EQ(st.records, 8u);
  EXPECT_EQ(st.batches, 1u);  // all eight drained as one group commit
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(wal->contains("c", "id" + std::to_string(i)));
  }
}

TEST(Wal, UnackedWriteInvisibleAfterTornAppend) {
  Medium medium;
  auto wal = medium.open();
  wal->put("c", "acked", "<a/>");
  // The next append dies mid-write: a few bytes of the record reach the
  // medium (a torn write), the rest never will. The writer gets an
  // exception — this write was never acknowledged.
  medium.log->crash_at_bytes(medium.log->size() + 4, 3);
  EXPECT_THROW(wal->put("c", "unacked", "<b/>"), LogDeviceError);

  auto wal2 = medium.after_crash().open();
  EXPECT_EQ(wal2->get("c", "acked"), "<a/>");
  EXPECT_FALSE(wal2->get("c", "unacked").has_value());
  // A torn tail is the normal crash artifact, not corruption.
  EXPECT_EQ(wal2->stats().corrupt_records, 0u);
}

TEST(Wal, UnackedWriteInvisibleAfterPartialFsync) {
  Medium medium;
  auto wal = medium.open();
  wal->put("c", "acked", "<a/>");
  // The next fsync makes only half the batch durable, then the device
  // dies — the commit marker can't be complete, so recovery must discard
  // the in-flight batch wholesale.
  medium.log->crash_at_sync(1, 0.5);
  EXPECT_THROW(wal->put("c", "unacked", "<b/>"), LogDeviceError);

  auto wal2 = medium.after_crash().open();
  EXPECT_EQ(wal2->get("c", "acked"), "<a/>");
  EXPECT_FALSE(wal2->get("c", "unacked").has_value());
}

TEST(Wal, DeviceFailureFailsEveryLaterWrite) {
  Medium medium;
  auto wal = medium.open();
  wal->put("c", "a", "<a/>");
  medium.log->crash_now();
  EXPECT_THROW(wal->put("c", "b", "<b/>"), LogDeviceError);
  // Fail-fast from here on: the engine refuses writes it could never ack.
  EXPECT_THROW(wal->put("c", "c", "<c/>"), LogDeviceError);
  // Reads still work — the table is intact, only durability is gone.
  EXPECT_EQ(wal->get("c", "a"), "<a/>");
}

TEST(Wal, MidLogCorruptionSkipsRecordAndKeepsLaterBatches) {
  Medium medium;
  {
    auto wal = medium.open();
    wal->put("c", "a", "<a/>");
    wal->put("c", "b", "<b/>");
    wal->put("c", "c", "<c/>");
  }
  // Bit rot: flip the op byte of the first record (payload starts after
  // the 8-byte [len][crc] header), failing its CRC. Its batch must be
  // dropped — applying a subset of a group commit is worse than losing
  // it — but the later committed batches must still be applied.
  std::string log = medium.log->contents();
  ASSERT_GT(log.size(), 8u);
  log[8] = static_cast<char>(log[8] ^ 0x40);
  Medium rotted(std::move(log), medium.snap->contents());

  auto wal = rotted.open();
  EXPECT_FALSE(wal->get("c", "a").has_value());
  EXPECT_EQ(wal->get("c", "b"), "<b/>");
  EXPECT_EQ(wal->get("c", "c"), "<c/>");
  // The flipped record counts as corruption, not as a discarded tail.
  EXPECT_GE(wal->stats().corrupt_records, 1u);
}

TEST(Wal, RemoveOfAbsentIdWritesNothing) {
  Medium medium;
  auto wal = medium.open();
  EXPECT_FALSE(wal->remove("c", "never-stored"));
  EXPECT_EQ(medium.log->size(), 0u);
  EXPECT_EQ(wal->stats().records, 0u);
}

TEST(Wal, PipelinedWritesAreDurableAfterDrain) {
  Medium medium;
  {
    auto wal = medium.open();
    for (int i = 0; i < 100; ++i) {
      wal->put_async("c", "id-" + std::to_string(i),
                     "<v>" + std::to_string(i) + "</v>");
    }
    wal->drain();
    // The whole window coalesced: far fewer syncs than records (the point
    // of the pipelined path), but after drain() every one is applied.
    EXPECT_EQ(wal->stats().records, 100u);
    EXPECT_LT(wal->stats().batches, 100u);
    medium.log->crash_now();
  }
  auto wal = medium.after_crash().open();
  EXPECT_EQ(wal->stats().recovered_records, 100u);
  EXPECT_EQ(wal->get("c", "id-99"), "<v>99</v>");
}

TEST(Wal, DrainThrowsWhenDeviceDiesUnderPipelinedWrites) {
  Medium medium;
  auto wal = medium.open();
  wal->put("c", "acked", "<a/>");
  medium.log->crash_now();
  // put_async itself cannot fail (nothing is acknowledged yet); the
  // barrier is where the bad news arrives.
  wal->put_async("c", "lost", "<b/>");
  EXPECT_THROW(wal->drain(), LogDeviceError);
  EXPECT_EQ(wal->get("c", "acked"), "<a/>");
}

TEST(Wal, CompactionTruncatesLogAndPreservesState) {
  Medium medium;
  auto wal = medium.open();
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      wal->put("c", "id" + std::to_string(i),
               "<v round=\"" + std::to_string(round) + "\"/>");
    }
  }
  EXPECT_GT(wal->log_bytes(), 0u);
  wal->compact();
  EXPECT_EQ(wal->log_bytes(), 0u);       // log truncated...
  EXPECT_GT(wal->snapshot_bytes(), 0u);  // ...state moved to the snapshot
  EXPECT_EQ(wal->stats().compactions, 1u);

  // Live reads and post-reboot reads both see the last round only.
  auto wal2 = medium.after_crash().open();
  EXPECT_EQ(wal2->list("c").size(), 20u);
  EXPECT_EQ(wal2->get("c", "id7"), "<v round=\"4\"/>");
}

TEST(Wal, CrashBetweenSnapshotInstallAndLogTruncateIsIdempotent) {
  Medium medium;
  auto wal = medium.open();
  wal->put("c", "a", "<a/>");
  wal->put("c", "b", "<b/>");
  std::string old_log = medium.log->contents();
  wal->compact();
  // Simulated worst case: power dies after the snapshot was installed
  // but before the log was truncated — the next boot replays the ENTIRE
  // old log over the new snapshot. Replay is idempotent, so the state
  // must come out identical, not doubled or failed.
  Medium torn_boot(std::move(old_log), medium.snap->contents());
  auto wal2 = torn_boot.open();
  EXPECT_EQ(wal2->get("c", "a"), "<a/>");
  EXPECT_EQ(wal2->get("c", "b"), "<b/>");
  EXPECT_EQ(wal2->list("c").size(), 2u);
}

TEST(Wal, ThresholdTriggersCompactionAutomatically) {
  Medium medium;
  auto wal = medium.open(WalOptions{.compact_threshold_bytes = 2048});
  std::string blob(100, 'x');
  for (int i = 0; i < 60; ++i) {
    wal->put("c", "id" + std::to_string(i % 10), "<v>" + blob + "</v>");
  }
  // Compaction runs on the leader, right after the triggering batch.
  for (int waited = 0; wal->stats().compactions == 0 && waited < 200; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(wal->stats().compactions, 1u);
  EXPECT_EQ(wal->list("c").size(), 10u);
  EXPECT_EQ(wal->get("c", "id3"), "<v>" + blob + "</v>");
}

// A LogDevice decorator over a MemoryLogDevice: records which thread
// appends, and can throw a non-device exception from the next append.
class ProbeLogDevice final : public xmldb::LogDevice {
 public:
  void append(std::string_view bytes) override {
    {
      std::lock_guard lock(mu_);
      append_thread_ = std::this_thread::get_id();
      if (std::exchange(throw_next_, false))
        throw std::runtime_error("probe: injected non-device failure");
    }
    inner_.append(bytes);
  }
  void sync() override { inner_.sync(); }
  std::string contents() const override { return inner_.contents(); }
  std::uint64_t size() const override { return inner_.size(); }
  void reset(std::string_view bytes) override { inner_.reset(bytes); }

  std::thread::id append_thread() const {
    std::lock_guard lock(mu_);
    return append_thread_;
  }
  void throw_on_next_append() {
    std::lock_guard lock(mu_);
    throw_next_ = true;
  }

 private:
  mutable std::mutex mu_;
  MemoryLogDevice inner_;
  std::thread::id append_thread_;
  bool throw_next_ = false;
};

TEST(Wal, UncontendedPutCommitsOnCallerThread) {
  auto log = std::make_shared<ProbeLogDevice>();
  WalBackend wal(log, std::make_shared<MemoryLogDevice>());
  std::thread::id writer;
  std::thread t([&] {
    writer = std::this_thread::get_id();
    wal.put("c", "a", "<a/>");
  });
  t.join();
  // No commit thread: the writer led its own batch.
  EXPECT_EQ(log->append_thread(), writer);
  EXPECT_EQ(wal.get("c", "a"), "<a/>");
}

TEST(Wal, FollowersFailWhenDeviceDiesUnderLeader) {
  Medium medium;
  auto wal = medium.open();
  wal->put("c", "acked", "<a/>");
  wal->pause_commits();
  std::atomic<int> failed{0};
  std::vector<std::thread> writers;
  for (int i = 0; i < 8; ++i) {
    writers.emplace_back([&, i] {
      try {
        wal->put("c", "id" + std::to_string(i), "<v/>");
      } catch (const LogDeviceError&) {
        ++failed;
      }
    });
  }
  while (wal->pending() < 8) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  medium.log->crash_now();
  wal->resume_commits();
  for (auto& w : writers) w.join();  // every follower is released

  EXPECT_EQ(failed.load(), 8);
  EXPECT_EQ(wal->pending(), 0u);
  EXPECT_THROW(wal->put("c", "later", "<l/>"), LogDeviceError);
  EXPECT_EQ(wal->get("c", "acked"), "<a/>");
  EXPECT_FALSE(wal->contains("c", "id0"));
}

TEST(Wal, ConcurrentAckedWritesSurviveCrash) {
  constexpr int kThreads = 8;
  constexpr int kOps = 200;
  constexpr int kIdsPerThread = 16;
  Medium medium;
  auto wal = medium.open();
  // Each thread owns its ids, so its own acknowledged writes decide their
  // final state; the models are read only after every thread has joined.
  std::vector<std::map<std::string, std::string>> models(kThreads);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      auto& model = models[t];
      for (int i = 0; i < kOps; ++i) {
        std::string id =
            "t" + std::to_string(t) + "-" + std::to_string(i % kIdsPerThread);
        if (i % 5 == 4 && model.count(id)) {
          EXPECT_TRUE(wal->remove("c", id));
          model.erase(id);
        } else {
          std::string value = "<v i=\"" + std::to_string(i) + "\"/>";
          wal->put("c", id, value);
          model[id] = value;
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  medium.log->crash_now();

  std::map<std::string, std::string> acked;
  for (const auto& model : models) acked.insert(model.begin(), model.end());
  auto rebooted = medium.after_crash().open();
  std::map<std::string, std::string> recovered;
  for (const auto& id : rebooted->list("c"))
    recovered[id] = *rebooted->get("c", id);
  EXPECT_EQ(recovered, acked);
}

TEST(Wal, NonDeviceExceptionReleasesTheTurn) {
  auto log = std::make_shared<ProbeLogDevice>();
  WalBackend wal(log, std::make_shared<MemoryLogDevice>());
  wal.put("c", "acked", "<a/>");
  log->throw_on_next_append();
  // A std::runtime_error from the device is a failed commit like any
  // other: the writer sees LogDeviceError, not a crash.
  EXPECT_THROW(wal.put("c", "b", "<b/>"), LogDeviceError);
  // The turn was handed back: another thread's write fails fast instead
  // of waiting forever for a leader that is gone.
  std::thread second([&] {
    EXPECT_THROW(wal.put("c", "c", "<c/>"), LogDeviceError);
  });
  second.join();
  EXPECT_EQ(wal.get("c", "acked"), "<a/>");
  EXPECT_FALSE(wal.contains("c", "b"));
}

TEST(Wal, DestructorCommitsQueuedAsyncWrites) {
  Medium medium;
  {
    auto wal = medium.open();
    for (int i = 0; i < 50; ++i) {
      wal->put_async("c", "id-" + std::to_string(i),
                     "<v>" + std::to_string(i) + "</v>");
    }
    // No drain(): the destructor commits what is still queued.
  }
  auto wal = medium.after_crash().open();
  EXPECT_EQ(wal->list("c").size(), 50u);
  EXPECT_EQ(wal->get("c", "id-49"), "<v>49</v>");
}

// --- the DurableStore facade -------------------------------------------------------

TEST(DurableStoreTest, RecordsAndValidatesCollectionHeaders) {
  Medium medium;
  {
    xmldb::XmlDatabase db(medium.open());
    xmldb::DurableStore store(db);
    EXPECT_EQ(store.open_collection("jobs", "sched.job", 1), 0u);  // new
  }
  Medium boot = medium.after_crash();
  xmldb::XmlDatabase db(boot.open());
  xmldb::DurableStore store(db);
  // Matching reopen sees the recorded version.
  EXPECT_EQ(store.open_collection("jobs", "sched.job", 1), 1u);
  // A different layer claiming the same collection fails loudly, before
  // any document is parsed.
  EXPECT_THROW(store.open_collection("jobs", "wse.subscription", 1),
               std::runtime_error);
  // Code older than the medium must not run against it.
  xmldb::DurableStore store2(db);
  store2.open_collection("newer", "x", 3);
  EXPECT_THROW(store2.open_collection("newer", "x", 2), std::runtime_error);
}

TEST(DurableStoreTest, VersionDriftRunsMigrationHook) {
  Medium medium;
  xmldb::XmlDatabase db(medium.open());
  {
    xmldb::DurableStore store(db);
    store.open_collection("jobs", "sched.job", 1);
    db.store("jobs", "j1", *xml::parse_element("<job v=\"old\"/>"));
  }
  xmldb::DurableStore store(db);
  // Without a migrator the drift is refused...
  EXPECT_THROW(store.open_collection("jobs", "sched.job", 2),
               std::runtime_error);
  // ...with one, the hook rewrites documents and the header moves on.
  bool migrated = false;
  EXPECT_EQ(store.open_collection(
                "jobs", "sched.job", 2,
                [&](xmldb::XmlDatabase& mdb, const std::string& coll,
                    std::uint32_t found) {
                  EXPECT_EQ(found, 1u);
                  auto doc = mdb.load(coll, "j1");
                  doc->set_attr(xml::QName("v"), "new");
                  mdb.store(coll, "j1", *doc);
                  migrated = true;
                  return true;
                }),
            1u);
  EXPECT_TRUE(migrated);
  bool found_header = false;
  for (const auto& h : store.headers()) {
    if (h.collection == "jobs") {
      EXPECT_EQ(h.version, 2u);
      found_header = true;
    }
  }
  EXPECT_TRUE(found_header);
}

// --- container recovery: the restarted deployments ---------------------------------

// Kill a WSRF counter deployment mid-life, reboot over the surviving
// medium, and read the SAME recovered state through both stacks: the
// WSRF GetResourceProperty path and the WS-Transfer Get path. The WSN
// subscription made before the crash must keep delivering afterwards.
TEST(Durability, CounterStateSurvivesRestartOnBothStacks) {
  net::VirtualNetwork net{net::NetworkProfile::colocated()};
  auto caller = std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
  auto sink = std::make_unique<net::VirtualCaller>(
      net, net::VirtualCaller::Options{.keep_alive = false});
  wsn::NotificationConsumer consumer;
  net.bind("client.example", consumer);

  Medium medium;
  soap::EndpointReference epr;
  {
    counter::WsrfCounterDeployment before(counter::WsrfCounterDeployment::Params{
        .backend = medium.open(),
        .container = {},
        .notification_sink = sink.get(),
        .address_base = "http://wsrf.example",
    });
    net.bind("wsrf.example", before.container());
    counter::WsrfCounterClient client(*caller, before.counter_address());
    epr = client.create();
    client.set(41);
    client.subscribe(soap::EndpointReference("http://client.example/sink"));
    client.set(42);  // delivery works before the crash
    ASSERT_TRUE(consumer.wait_for(1, 2000));
    medium.log->crash_now();  // kill -9
  }

  // Reboot: same medium, fresh deployment, explicit recovery phase.
  Medium boot = medium.after_crash();
  counter::WsrfCounterDeployment after(counter::WsrfCounterDeployment::Params{
      .backend = boot.open(),
      .container = {},
      .notification_sink = sink.get(),
      .address_base = "http://wsrf.example",
  });
  net.bind("wsrf.example", after.container());
  EXPECT_GE(after.recover(), 2u);  // counter home + subscriptions hooks ran

  counter::WsrfCounterClient client(*caller, after.counter_address());
  client.attach(epr);
  EXPECT_EQ(client.get(), 42);          // WSRF GetResourceProperty
  EXPECT_EQ(client.double_value(), 84);  // the computed property too

  // The recovered subscription still delivers — a restarted producer that
  // believed it had zero subscribers would silently stop notifying.
  client.set(43);
  EXPECT_TRUE(consumer.wait_for(2, 2000));

  // Same medium served through the OTHER stack: WS-Transfer Get must
  // return the document WSRF recovered — the two views never diverge.
  Medium wst_boot = medium.after_crash();
  counter::WstCounterDeployment wst(counter::WstCounterDeployment::Params{
      .backend = wst_boot.open(),
      .container = {},
      .notification_sink = sink.get(),
      .address_base = "http://wst.example",
      .subscription_file = {},
  });
  net.bind("wst.example", wst.container());
  auto id = epr.reference_property(wsrf::resource_id_qname());
  ASSERT_TRUE(id.has_value());
  soap::EndpointReference wst_epr(wst.counter_address());
  wst_epr.add_reference_property(wst::transfer_id_qname(), *id);
  counter::WstCounterClient wst_client(*caller, wst.counter_address(),
                                       wst.source_address());
  wst_client.attach(wst_epr);
  EXPECT_EQ(wst_client.get(), 42);  // WS-Transfer Get, same recovered state
}

// WS-Eventing subscriptions kept as per-entry documents in the database
// (subscriptions_in_db) survive the crash and deliver after recovery.
TEST(Durability, WseSubscriptionsSurviveRestart) {
  net::VirtualNetwork net{net::NetworkProfile::colocated()};
  auto caller = std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
  auto sink = std::make_unique<net::VirtualCaller>(
      net, net::VirtualCaller::Options{
               .transport = net::TransportKind::kSoapTcp});
  wsn::NotificationConsumer consumer;
  net.bind("client.example", consumer);

  Medium medium;
  soap::EndpointReference epr;
  {
    counter::WstCounterDeployment before(counter::WstCounterDeployment::Params{
        .backend = medium.open(),
        .container = {},
        .notification_sink = sink.get(),
        .address_base = "http://wst.example",
        .subscription_file = {},
        .subscriptions_in_db = true,
    });
    net.bind("wst.example", before.container());
    counter::WstCounterClient client(*caller, before.counter_address(),
                                     before.source_address());
    epr = client.create();
    client.subscribe(soap::EndpointReference("http://client.example/sink"));
    EXPECT_EQ(before.subscription_store().size(), 1u);
    medium.log->crash_now();
  }

  Medium boot = medium.after_crash();
  counter::WstCounterDeployment after(counter::WstCounterDeployment::Params{
      .backend = boot.open(),
      .container = {},
      .notification_sink = sink.get(),
      .address_base = "http://wst.example",
      .subscription_file = {},
      .subscriptions_in_db = true,
  });
  net.bind("wst.example", after.container());
  after.recover();
  EXPECT_EQ(after.subscription_store().size(), 1u);

  counter::WstCounterClient client(*caller, after.counter_address(),
                                   after.source_address());
  client.attach(epr);
  client.set(7);
  EXPECT_TRUE(consumer.wait_for(1, 2000));
}

}  // namespace
}  // namespace gs
