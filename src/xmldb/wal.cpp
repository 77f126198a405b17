#include "xmldb/wal.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"

namespace gs::xmldb {
namespace {

// Record ops. A frame is [u32 len][u32 crc32(payload)][payload]; the first
// payload byte is the op.
constexpr std::uint8_t kOpPut = 1;
constexpr std::uint8_t kOpRemove = 2;
constexpr std::uint8_t kOpCommit = 3;

constexpr char kSnapshotMagic[8] = {'G', 'S', 'S', 'N', 'A', 'P', '0', '0'};
constexpr std::uint32_t kSnapshotVersion = 1;

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void patch_u32(std::string& out, std::size_t at, std::uint32_t v) {
  out[at] = static_cast<char>(v & 0xff);
  out[at + 1] = static_cast<char>((v >> 8) & 0xff);
  out[at + 2] = static_cast<char>((v >> 16) & 0xff);
  out[at + 3] = static_cast<char>((v >> 24) & 0xff);
}

bool read_u32(std::string_view in, std::size_t& pos, std::uint32_t& out) {
  if (pos + 4 > in.size()) return false;
  out = static_cast<std::uint8_t>(in[pos]) |
        (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[pos + 1])) << 8) |
        (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[pos + 2])) << 16) |
        (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[pos + 3])) << 24);
  pos += 4;
  return true;
}

bool read_u64(std::string_view in, std::size_t& pos, std::uint64_t& out) {
  std::uint32_t lo = 0, hi = 0;
  if (!read_u32(in, pos, lo) || !read_u32(in, pos, hi)) return false;
  out = static_cast<std::uint64_t>(hi) << 32 | lo;
  return true;
}

bool read_view(std::string_view in, std::size_t& pos, std::uint64_t len,
               std::string_view& out) {
  if (len > in.size() - pos) return false;
  out = in.substr(pos, len);
  pos += len;
  return true;
}

// Slicing-by-8 CRC32: eight derived tables let the loop fold 8 bytes per
// iteration with no serial dependency between table lookups. The checksum
// runs over every logged byte, so the byte-at-a-time version showed up as
// the largest WAL-only cost per record (~2.5 cycles/byte vs ~0.4 here).
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (int slice = 1; slice < 8; ++slice) {
        c = t[0][c & 0xff] ^ (c >> 8);
        t[slice][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

std::string encode_frame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 8);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload));
  out.append(payload);
  return out;
}

// Frame-in-place variants of encode_frame: build the payload straight into
// the frame buffer (one allocation on the hot write path), then patch the
// length/CRC header over the 8 reserved bytes.
std::string encode_put(const std::string& collection, const std::string& id,
                       const std::string& octets) {
  std::string out;
  out.reserve(8 + 1 + 12 + collection.size() + id.size() + octets.size());
  out.append(8, '\0');
  out.push_back(static_cast<char>(kOpPut));
  put_u32(out, static_cast<std::uint32_t>(collection.size()));
  out.append(collection);
  put_u32(out, static_cast<std::uint32_t>(id.size()));
  out.append(id);
  put_u64(out, octets.size());
  out.append(octets);
  std::string_view payload(out.data() + 8, out.size() - 8);
  patch_u32(out, 0, static_cast<std::uint32_t>(payload.size()));
  patch_u32(out, 4, crc32(payload));
  return out;
}

std::string encode_remove(const std::string& collection,
                          const std::string& id) {
  std::string out;
  out.reserve(8 + 1 + 8 + collection.size() + id.size());
  out.append(8, '\0');
  out.push_back(static_cast<char>(kOpRemove));
  put_u32(out, static_cast<std::uint32_t>(collection.size()));
  out.append(collection);
  put_u32(out, static_cast<std::uint32_t>(id.size()));
  out.append(id);
  std::string_view payload(out.data() + 8, out.size() - 8);
  patch_u32(out, 0, static_cast<std::uint32_t>(payload.size()));
  patch_u32(out, 4, crc32(payload));
  return out;
}

std::string encode_commit(std::uint32_t record_count) {
  std::string payload;
  payload.push_back(static_cast<char>(kOpCommit));
  put_u32(payload, record_count);
  return encode_frame(payload);
}

// A decoded record: views into the bytes it was decoded from.
struct DecodedRecord {
  std::uint8_t op = 0;
  std::string_view collection;
  std::string_view id;
  std::string_view octets;
  std::uint32_t commit_count = 0;
};

enum class FrameResult {
  kOk,         // decoded
  kTorn,       // ran off the end of the log — the normal tail
  kCorrupt,    // CRC or structure failure on a complete-looking frame
};

// Parses a record payload (the bytes after a frame's [len][crc] header).
bool decode_payload(std::string_view payload, DecodedRecord& rec) {
  if (payload.empty()) return false;
  std::size_t p = 1;
  rec.op = static_cast<std::uint8_t>(payload[0]);
  std::uint32_t clen = 0, ilen = 0;
  std::uint64_t olen = 0;
  switch (rec.op) {
    case kOpPut:
      return read_u32(payload, p, clen) &&
             read_view(payload, p, clen, rec.collection) &&
             read_u32(payload, p, ilen) &&
             read_view(payload, p, ilen, rec.id) &&
             read_u64(payload, p, olen) &&
             read_view(payload, p, olen, rec.octets) && p == payload.size();
    case kOpRemove:
      return read_u32(payload, p, clen) &&
             read_view(payload, p, clen, rec.collection) &&
             read_u32(payload, p, ilen) &&
             read_view(payload, p, ilen, rec.id) && p == payload.size();
    case kOpCommit:
      return read_u32(payload, p, rec.commit_count) && p == payload.size();
    default:
      return false;
  }
}

FrameResult decode_frame(std::string_view log, std::size_t& pos,
                         DecodedRecord& rec) {
  std::size_t start = pos;
  std::uint32_t len = 0, crc = 0;
  if (!read_u32(log, pos, len) || !read_u32(log, pos, crc) ||
      len > log.size() - pos) {
    pos = start;
    return FrameResult::kTorn;
  }
  std::string_view payload = log.substr(pos, len);
  pos += len;
  if (crc32(payload) != crc || !decode_payload(payload, rec))
    return FrameResult::kCorrupt;
  return FrameResult::kOk;
}

// Runs `fn` when the scope exits, by return or by exception.
template <typename Fn>
class ScopeExit {
 public:
  explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
  ~ScopeExit() { fn_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  Fn fn_;
};

telemetry::MetricsRegistry& registry_or_global(telemetry::MetricsRegistry* m) {
  return m ? *m : telemetry::MetricsRegistry::global();
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  const auto& t = crc_tables();
  std::uint32_t c = 0xffffffffu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  while (n >= 8) {
    // Little-endian fold of the CRC into the first word; the two words'
    // bytes index independent tables, so the lookups run in parallel.
    std::uint32_t lo = static_cast<std::uint32_t>(p[0]) |
                       (static_cast<std::uint32_t>(p[1]) << 8) |
                       (static_cast<std::uint32_t>(p[2]) << 16) |
                       (static_cast<std::uint32_t>(p[3]) << 24);
    std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                       (static_cast<std::uint32_t>(p[5]) << 8) |
                       (static_cast<std::uint32_t>(p[6]) << 16) |
                       (static_cast<std::uint32_t>(p[7]) << 24);
    lo ^= c;
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][(lo >> 24) & 0xff] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][(hi >> 24) & 0xff];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

WalBackend::WalBackend(std::shared_ptr<LogDevice> log,
                       std::shared_ptr<LogDevice> snapshot, WalOptions options)
    : log_(std::move(log)),
      snapshot_(std::move(snapshot)),
      options_(options),
      records_logged_(
          registry_or_global(options.metrics).counter("xmldb.wal_records")),
      batches_synced_(
          registry_or_global(options.metrics).counter("xmldb.wal_batches")),
      corrupt_records_(registry_or_global(options.metrics)
                           .counter("xmldb.wal_corrupt_records")),
      compactions_(
          registry_or_global(options.metrics).counter("xmldb.wal_compactions")),
      recovered_records_(registry_or_global(options.metrics)
                             .counter("xmldb.wal_recovered_records")),
      batch_size_(
          registry_or_global(options.metrics).histogram("xmldb.wal_batch_size")),
      commit_us_(
          registry_or_global(options.metrics).histogram("xmldb.wal_commit_us")),
      recovery_us_(registry_or_global(options.metrics)
                       .histogram("xmldb.wal_recovery_us")),
      log_bytes_gauge_(
          registry_or_global(options.metrics).gauge("xmldb.wal_log_bytes")),
      snapshot_bytes_gauge_(registry_or_global(options.metrics)
                                .gauge("xmldb.wal_snapshot_bytes")) {
  recover();
  queue_.reserve(64);
  batch_.reserve(64);
}

std::unique_ptr<WalBackend> WalBackend::open(const std::filesystem::path& dir,
                                             WalOptions options) {
  std::filesystem::create_directories(dir);
  return std::make_unique<WalBackend>(
      std::make_shared<FileLogDevice>(dir / "wal.log"),
      std::make_shared<FileLogDevice>(dir / "wal.snap"), options);
}

WalBackend::~WalBackend() {
  // Commit what put_async left queued, paused or not. If the device fails
  // now, those writes stay unacknowledged — no drain() will ever report it.
  std::unique_lock lock(queue_mu_);
  paused_ = false;
  if (!device_failed_ && !queue_.empty()) lead(lock, /*force_compact=*/false);
}

void WalBackend::recover() {
  auto t0 = std::chrono::steady_clock::now();
  std::uint64_t applied = 0, corrupt = 0, discarded = 0;
  std::lock_guard table_lock(table_mu_);

  // Phase 1: the snapshot — a versioned header followed by framed puts. A
  // bad header means the snapshot device is not ours (or torn mid-install,
  // which reset() forbids): treat it as corrupt-and-empty rather than
  // refuse to start.
  std::string snap = snapshot_->contents();
  if (!snap.empty()) {
    bool header_ok = snap.size() >= sizeof(kSnapshotMagic) + 4 &&
                     snap.compare(0, sizeof(kSnapshotMagic), kSnapshotMagic,
                                  sizeof(kSnapshotMagic)) == 0;
    std::size_t pos = sizeof(kSnapshotMagic);
    std::uint32_t version = 0;
    if (header_ok) header_ok = read_u32(snap, pos, version);
    if (header_ok && version == kSnapshotVersion) {
      // Within the snapshot every frame must be whole: it was installed
      // atomically, so a torn or corrupt frame is real corruption.
      while (pos < snap.size()) {
        DecodedRecord rec;
        FrameResult r = decode_frame(snap, pos, rec);
        if (r != FrameResult::kOk || rec.op != kOpPut) {
          ++corrupt;
          telemetry::EventLog::global().emit(
              telemetry::Level::kWarn, "xmldb.wal",
              "corrupt snapshot record, remainder skipped", {});
          break;
        }
        apply_locked(rec.op, rec.collection, rec.id, rec.octets);
        ++applied;
      }
    } else {
      ++corrupt;
      telemetry::EventLog::global().emit(
          telemetry::Level::kWarn, "xmldb.wal",
          "unrecognized snapshot header, starting from log only", {});
    }
  }

  // Phase 2: the log tail. Records accumulate per batch and apply only at
  // a valid commit marker; a torn tail is the normal crash artifact and
  // ends recovery silently, while a CRC failure mid-log (bit rot) skips
  // that record, warns, and keeps scanning for later committed batches.
  std::string log = log_->contents();
  std::size_t pos = 0;
  std::vector<DecodedRecord> batch;
  bool batch_poisoned = false;
  while (pos < log.size()) {
    DecodedRecord rec;
    FrameResult r = decode_frame(log, pos, rec);
    if (r == FrameResult::kTorn) {
      discarded += batch.size();
      batch.clear();
      break;
    }
    if (r == FrameResult::kCorrupt) {
      // decode_frame consumed the whole frame (the length field was
      // plausible, the payload failed its CRC or structure check), so the
      // scan stays frame-aligned and later committed batches still apply.
      // A corrupted length field instead reads as a torn tail above — the
      // one ambiguity a length-prefixed log cannot resolve.
      ++corrupt;
      batch_poisoned = true;
      telemetry::EventLog::global().emit(
          telemetry::Level::kWarn, "xmldb.wal",
          "corrupt log record skipped during recovery", {});
      continue;
    }
    if (rec.op == kOpCommit) {
      if (batch_poisoned || rec.commit_count != batch.size()) {
        // The batch lost records to corruption — applying a subset would
        // expose a partial group commit, so drop the whole batch.
        discarded += batch.size();
        if (!batch_poisoned) ++corrupt;
        telemetry::EventLog::global().emit(
            telemetry::Level::kWarn, "xmldb.wal",
            "discarding batch with corrupt or missing records", {});
      } else {
        for (const auto& b : batch)
          apply_locked(b.op, b.collection, b.id, b.octets);
        applied += batch.size();
      }
      batch.clear();
      batch_poisoned = false;
    } else {
      batch.push_back(rec);
    }
  }
  discarded += batch.size();

  {
    std::lock_guard lock(stats_mu_);
    stats_.recovered_records = applied;
    stats_.corrupt_records = corrupt;
    stats_.discarded_records = discarded;
  }
  corrupt_records_.add(static_cast<std::int64_t>(corrupt));
  recovered_records_.add(static_cast<std::int64_t>(applied));
  log_bytes_gauge_.set(static_cast<std::int64_t>(log_->size()));
  snapshot_bytes_gauge_.set(static_cast<std::int64_t>(snapshot_->size()));
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  recovery_us_.record(us);
}

void WalBackend::enqueue_locked(std::string frame, Ack* ack) {
  if (device_failed_)
    throw LogDeviceError("wal: log device failed, backend is read-only");
  queue_.push_back(Pending{.frame = std::move(frame),
                           .ack = ack,
                           .enqueued = std::chrono::steady_clock::now()});
}

bool WalBackend::write(std::string frame) {
  Ack ack;
  std::unique_lock lock(queue_mu_);
  enqueue_locked(std::move(frame), &ack);
  // Either a leader commits this record, or this writer takes the turn and
  // commits it (with whatever else queued meanwhile) itself.
  turn_cv_.wait(lock, [&] { return ack.done || (!leader_ && !paused_); });
  if (!ack.done) lead(lock, /*force_compact=*/false);
  if (ack.failed)
    throw LogDeviceError("wal: append/sync failed, write not acknowledged");
  return ack.result;
}

void WalBackend::put(const std::string& collection, const std::string& id,
                     const std::string& octets) {
  write(encode_put(collection, id, octets));
}

void WalBackend::put_async(const std::string& collection,
                           const std::string& id, const std::string& octets) {
  // No leader is woken: durability is deferred until drain(), so the whole
  // window piles up and commits as ONE batch — one append, one sync.
  std::string frame = encode_put(collection, id, octets);
  std::lock_guard lock(queue_mu_);
  enqueue_locked(std::move(frame), nullptr);
}

void WalBackend::drain() {
  std::unique_lock lock(queue_mu_);
  // Once no leader is in flight, every record not in queue_ is resolved;
  // committing queue_ on this thread resolves the rest.
  turn_cv_.wait(lock,
                [this] { return device_failed_ || (!leader_ && !paused_); });
  if (!device_failed_ && !queue_.empty()) lead(lock, /*force_compact=*/false);
  if (device_failed_)
    throw LogDeviceError("wal: log device failed, writes not acknowledged");
}

bool WalBackend::remove(const std::string& collection, const std::string& id) {
  {
    // Absent documents don't earn a log record (or an fsync) — same
    // result a MemoryBackend reports, without the durability round trip.
    std::lock_guard lock(table_mu_);
    auto coll = table_.find(collection);
    if (coll == table_.end() || !coll->second.count(id)) return false;
  }
  // The apply-time result is authoritative: a racing remove of the same id
  // may win, in which case this one reports false just like MemoryBackend.
  return write(encode_remove(collection, id));
}

std::optional<std::string> WalBackend::get(const std::string& collection,
                                           const std::string& id) {
  std::lock_guard lock(table_mu_);
  auto coll = table_.find(collection);
  if (coll == table_.end()) return std::nullopt;
  auto doc = coll->second.find(id);
  if (doc == coll->second.end()) return std::nullopt;
  return doc->second;
}

std::vector<std::string> WalBackend::list(const std::string& collection) {
  std::lock_guard lock(table_mu_);
  std::vector<std::string> ids;
  auto coll = table_.find(collection);
  if (coll == table_.end()) return ids;
  ids.reserve(coll->second.size());
  for (const auto& [id, _] : coll->second) ids.push_back(id);
  return ids;
}

bool WalBackend::contains(const std::string& collection,
                          const std::string& id) {
  std::lock_guard lock(table_mu_);
  auto coll = table_.find(collection);
  return coll != table_.end() && coll->second.count(id) > 0;
}

bool WalBackend::apply_locked(std::uint8_t op, std::string_view collection,
                              std::string_view id, std::string_view octets) {
  auto coll = table_.find(collection);
  if (op == kOpPut) {
    if (coll == table_.end())
      coll = table_.emplace(std::string(collection), Docs{}).first;
    auto doc = coll->second.find(id);
    if (doc == coll->second.end()) {
      coll->second.emplace(std::string(id), std::string(octets));
    } else {
      doc->second.assign(octets);
    }
    return true;
  }
  if (coll == table_.end()) return false;
  auto doc = coll->second.find(id);
  if (doc == coll->second.end()) return false;
  coll->second.erase(doc);
  if (coll->second.empty()) table_.erase(coll);
  return true;
}

void WalBackend::lead(std::unique_lock<std::mutex>& lock, bool force_compact) {
  leader_ = true;
  batch_.swap(queue_);
  lock.unlock();
  bool committed = false;
  // However this turn ends, resolve the batch and hand the turn back. A
  // failed commit leaves the medium's tail unknown, so the engine goes
  // read-only: the batch and everything queued behind it fail, and every
  // later write throws.
  ScopeExit release([&] {
    lock.lock();
    if (!committed) {
      device_failed_ = true;
      resolve(queue_, /*failed=*/true);
      queue_.clear();
    }
    resolve(batch_, !committed);
    batch_.clear();
    leader_ = false;
    turn_cv_.notify_all();
  });
  try {
    if (!batch_.empty()) commit_batch();
    committed = true;
  } catch (...) {
    // Any exception — a device error, or bad_alloc building the batch
    // buffer — is a device failure; the writers see LogDeviceError.
  }
  if (committed &&
      (force_compact || log_->size() > options_.compact_threshold_bytes)) {
    do_compact();
  }
}

void WalBackend::resolve(std::vector<Pending>& records, bool failed) {
  for (Pending& p : records) {
    if (!p.ack) continue;
    p.ack->done = true;
    p.ack->failed = failed;
    p.ack->result = p.result;
  }
}

void WalBackend::commit_batch() {
  log_buf_.clear();
  for (const auto& p : batch_) log_buf_ += p.frame;
  log_buf_ += encode_commit(static_cast<std::uint32_t>(batch_.size()));
  log_->append(log_buf_);
  log_->sync();

  auto now = std::chrono::steady_clock::now();
  {
    // One table lock for the whole batch — the in-memory apply is the
    // per-record half of commit cost, and readers only ever see whole
    // batches anyway (they couldn't observe a record before its marker).
    std::lock_guard lock(table_mu_);
    for (auto& p : batch_) {
      DecodedRecord rec;
      decode_payload(std::string_view(p.frame).substr(8), rec);
      p.result = apply_locked(rec.op, rec.collection, rec.id, rec.octets);
    }
  }
  // Latency is sampled per batch (the oldest record — it waited longest);
  // a per-record histogram hit would double the apply loop's cost.
  commit_us_.record(std::chrono::duration_cast<std::chrono::microseconds>(
                        now - batch_.front().enqueued)
                        .count());

  {
    std::lock_guard lock(stats_mu_);
    ++stats_.batches;
    stats_.records += batch_.size();
  }
  records_logged_.add(static_cast<std::int64_t>(batch_.size()));
  batches_synced_.add(1);
  batch_size_.record(static_cast<std::int64_t>(batch_.size()));
  log_bytes_gauge_.set(static_cast<std::int64_t>(log_->size()));
}

void WalBackend::do_compact() {
  // Serialize the table under the lock, install outside it. Ordering:
  // snapshot first, then truncate the log. A crash between the two leaves
  // the old log to replay over the new snapshot — every record in it is a
  // put/remove the snapshot already reflects, and replaying is idempotent.
  // Any failure (a device error, or bad_alloc building the snapshot) keeps
  // the existing log, which still holds every acknowledged write.
  try {
    std::string snap;
    snap.append(kSnapshotMagic, sizeof(kSnapshotMagic));
    put_u32(snap, kSnapshotVersion);
    {
      std::lock_guard lock(table_mu_);
      for (const auto& [collection, docs] : table_) {
        for (const auto& [id, octets] : docs)
          snap += encode_put(collection, id, octets);
      }
    }
    snapshot_->reset(snap);
    log_->reset("");
  } catch (...) {
    telemetry::EventLog::global().emit(
        telemetry::Level::kWarn, "xmldb.wal",
        "compaction failed, continuing on existing log", {});
    return;
  }
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.compactions;
  }
  compactions_.add(1);
  log_bytes_gauge_.set(static_cast<std::int64_t>(log_->size()));
  snapshot_bytes_gauge_.set(static_cast<std::int64_t>(snapshot_->size()));
}

void WalBackend::compact() {
  std::unique_lock lock(queue_mu_);
  turn_cv_.wait(lock,
                [this] { return device_failed_ || (!leader_ && !paused_); });
  if (!device_failed_) lead(lock, /*force_compact=*/true);
}

void WalBackend::pause_commits() {
  std::lock_guard lock(queue_mu_);
  paused_ = true;
}

void WalBackend::resume_commits() {
  {
    std::lock_guard lock(queue_mu_);
    paused_ = false;
  }
  turn_cv_.notify_all();
}

std::size_t WalBackend::pending() const {
  std::lock_guard lock(queue_mu_);
  return queue_.size();
}

WalStats WalBackend::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

}  // namespace gs::xmldb
