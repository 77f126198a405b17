// The byte device beneath the write-ahead log.
//
// The WAL engine (wal.hpp) is written against this interface so the same
// group-commit and recovery code runs over a real file, an in-memory
// buffer, and — the point of the abstraction — a crash-injecting device
// that dies at a seeded byte offset mid-append or tears an fsync in half.
// Durability is two-phase, like a kernel page cache: append() buffers,
// sync() makes everything buffered durable. What a post-crash reopen sees
// is exactly `contents()`: the durable prefix plus whatever fraction of
// the buffered bytes the crash let through.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gs::xmldb {

/// Thrown once a device has crashed (or its backing file failed): every
/// subsequent append/sync fails fast. The WAL maps this to unacknowledged
/// writes — a caller that sees it knows its write may or may not be
/// durable, exactly the promise a torn fsync leaves behind.
class LogDeviceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only byte log with explicit durability.
class LogDevice {
 public:
  virtual ~LogDevice() = default;

  /// Buffers bytes at the end of the log. Not durable until sync().
  virtual void append(std::string_view bytes) = 0;
  /// Makes every buffered byte durable. Throws LogDeviceError on failure;
  /// after a failed sync an unknown prefix of the buffered bytes may
  /// still have reached the medium.
  virtual void sync() = 0;
  /// What a reopen would find: the durable bytes. Throws LogDeviceError
  /// when the medium cannot be read.
  virtual std::string contents() const = 0;
  /// Durable size in bytes.
  virtual std::uint64_t size() const = 0;
  /// Atomically replaces the entire log with `bytes` (all-or-nothing —
  /// compaction installs snapshots through this, so a torn snapshot can
  /// never exist). Implies durability of `bytes`.
  virtual void reset(std::string_view bytes) = 0;
};

/// Heap-backed device with deterministic crash injection. `contents()`
/// stays readable after a crash — the medium survives the process — so a
/// test reopens a new WAL over the same device to simulate restart.
class MemoryLogDevice final : public LogDevice {
 public:
  MemoryLogDevice() = default;
  /// Starts with durable contents (reopen-what-the-crash-left surgery).
  explicit MemoryLogDevice(std::string initial);

  void append(std::string_view bytes) override;
  void sync() override;
  std::string contents() const override;
  std::uint64_t size() const override;
  void reset(std::string_view bytes) override;

  /// Seeded kill point: the device dies once `durable + buffered` would
  /// exceed `at_bytes`. Of the bytes past the limit, `tear_keep` more are
  /// still let through (torn write) before everything fails. Both the
  /// append that crosses the limit and every later append/sync throw.
  void crash_at_bytes(std::uint64_t at_bytes, std::uint64_t tear_keep = 0);
  /// Seeded kill point: the nth sync() from now fails after making only
  /// `keep_fraction` of its buffered bytes durable (a partial fsync).
  void crash_at_sync(int nth, double keep_fraction = 0.0);
  /// Immediate, clean death (no tearing) — buffered bytes are lost.
  void crash_now();

  bool crashed() const;
  std::uint64_t sync_count() const;

 private:
  void check_alive_locked() const;

  mutable std::mutex mu_;
  std::string durable_;
  std::string buffered_;
  bool crashed_ = false;
  std::uint64_t syncs_ = 0;
  // Injection plan (0 / negative = disarmed).
  std::uint64_t crash_at_bytes_ = 0;
  std::uint64_t tear_keep_ = 0;
  int crash_at_sync_ = 0;
  double sync_keep_fraction_ = 0.0;
};

/// File-backed device: append + fdatasync on a real descriptor, reset via
/// write-temp-then-rename so compaction is atomic on a real filesystem
/// too. Reopening the same path recovers whatever the last sync made
/// durable (plus, on a healthy close, the destructor's final flush).
class FileLogDevice final : public LogDevice {
 public:
  explicit FileLogDevice(std::filesystem::path path);
  ~FileLogDevice() override;

  void append(std::string_view bytes) override;
  void sync() override;
  std::string contents() const override;
  std::uint64_t size() const override;
  void reset(std::string_view bytes) override;

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  void open_locked();

  std::filesystem::path path_;
  mutable std::mutex mu_;
  int fd_ = -1;
  std::uint64_t synced_bytes_ = 0;
  std::uint64_t written_bytes_ = 0;
};

}  // namespace gs::xmldb
