#include "xmldb/log_device.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace gs::xmldb {

// --- MemoryLogDevice --------------------------------------------------------------

MemoryLogDevice::MemoryLogDevice(std::string initial)
    : durable_(std::move(initial)) {}

void MemoryLogDevice::check_alive_locked() const {
  if (crashed_) throw LogDeviceError("log device crashed");
}

void MemoryLogDevice::append(std::string_view bytes) {
  std::lock_guard lock(mu_);
  check_alive_locked();
  if (crash_at_bytes_ > 0) {
    std::uint64_t total = durable_.size() + buffered_.size();
    if (total + bytes.size() > crash_at_bytes_) {
      // The write crossing the kill point tears: only the bytes up to the
      // limit plus `tear_keep_` extra reach the medium, durably — the
      // partial sector a real torn write leaves behind.
      std::uint64_t admit = crash_at_bytes_ > total ? crash_at_bytes_ - total : 0;
      admit = std::min<std::uint64_t>(admit + tear_keep_, bytes.size());
      buffered_.append(bytes.substr(0, admit));
      durable_ += buffered_;
      buffered_.clear();
      crashed_ = true;
      throw LogDeviceError("log device crashed at seeded byte offset");
    }
  }
  buffered_.append(bytes);
}

void MemoryLogDevice::sync() {
  std::lock_guard lock(mu_);
  check_alive_locked();
  ++syncs_;
  if (crash_at_sync_ > 0 && static_cast<int>(syncs_) >= crash_at_sync_) {
    auto keep = static_cast<std::uint64_t>(
        static_cast<double>(buffered_.size()) * sync_keep_fraction_);
    durable_.append(buffered_.substr(0, keep));
    buffered_.clear();
    crashed_ = true;
    throw LogDeviceError("log device crashed at seeded sync");
  }
  durable_ += buffered_;
  buffered_.clear();
}

std::string MemoryLogDevice::contents() const {
  std::lock_guard lock(mu_);
  return durable_;
}

std::uint64_t MemoryLogDevice::size() const {
  std::lock_guard lock(mu_);
  return durable_.size();
}

void MemoryLogDevice::reset(std::string_view bytes) {
  std::lock_guard lock(mu_);
  check_alive_locked();
  durable_.assign(bytes);
  buffered_.clear();
}

void MemoryLogDevice::crash_at_bytes(std::uint64_t at_bytes,
                                     std::uint64_t tear_keep) {
  std::lock_guard lock(mu_);
  crash_at_bytes_ = at_bytes;
  tear_keep_ = tear_keep;
}

void MemoryLogDevice::crash_at_sync(int nth, double keep_fraction) {
  std::lock_guard lock(mu_);
  crash_at_sync_ = static_cast<int>(syncs_) + nth;
  sync_keep_fraction_ = keep_fraction;
}

void MemoryLogDevice::crash_now() {
  std::lock_guard lock(mu_);
  buffered_.clear();
  crashed_ = true;
}

bool MemoryLogDevice::crashed() const {
  std::lock_guard lock(mu_);
  return crashed_;
}

std::uint64_t MemoryLogDevice::sync_count() const {
  std::lock_guard lock(mu_);
  return syncs_;
}

// --- FileLogDevice ----------------------------------------------------------------

namespace {

[[noreturn]] void fail(const std::string& what, const std::filesystem::path& path) {
  throw LogDeviceError(what + " failed for " + path.string() + ": " +
                       std::strerror(errno));
}

// Writes all of `bytes`; a write that fails or makes no progress throws.
void write_all(int fd, std::string_view bytes, const std::filesystem::path& path) {
  while (!bytes.empty()) {
    ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      fail("write", path);
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
}

// Makes a rename in `dir` durable.
void sync_directory(const std::filesystem::path& dir) {
  int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) fail("open", dir);
  int rc = ::fsync(dfd);
  int saved = errno;
  ::close(dfd);
  errno = saved;
  if (rc != 0) fail("fsync", dir);
}

}  // namespace

FileLogDevice::FileLogDevice(std::filesystem::path path)
    : path_(std::move(path)) {
  std::lock_guard lock(mu_);
  std::filesystem::create_directories(path_.parent_path());
  open_locked();
}

void FileLogDevice::open_locked() {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw LogDeviceError("cannot open log " + path_.string() + ": " +
                         std::strerror(errno));
  }
  off_t end = ::lseek(fd_, 0, SEEK_END);
  synced_bytes_ = written_bytes_ = end < 0 ? 0 : static_cast<std::uint64_t>(end);
}

FileLogDevice::~FileLogDevice() {
  std::lock_guard lock(mu_);
  if (fd_ >= 0) {
    ::fdatasync(fd_);  // healthy close: flush the tail
    ::close(fd_);
  }
}

void FileLogDevice::append(std::string_view bytes) {
  std::lock_guard lock(mu_);
  if (fd_ < 0) throw LogDeviceError("log device closed: " + path_.string());
  try {
    write_all(fd_, bytes, path_);
  } catch (const LogDeviceError&) {
    // Part of `bytes` may be in the file, past written_bytes_: the device
    // fails rather than append after a torn record. Reopening the path
    // recovers the synced prefix.
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  written_bytes_ += bytes.size();
}

void FileLogDevice::sync() {
  std::lock_guard lock(mu_);
  if (fd_ < 0) throw LogDeviceError("log device closed: " + path_.string());
  if (::fdatasync(fd_) != 0) fail("fdatasync", path_);
  synced_bytes_ = written_bytes_;
}

std::string FileLogDevice::contents() const {
  std::lock_guard lock(mu_);
  // The constructor created the file, so a missing or unreadable one is a
  // fault of the medium, never an empty log: recovery must not start
  // without the documents the log held.
  int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("open", path_);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      int saved = errno;
      ::close(fd);
      errno = saved;
      fail("read", path_);
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::uint64_t FileLogDevice::size() const {
  std::lock_guard lock(mu_);
  return synced_bytes_;
}

void FileLogDevice::reset(std::string_view bytes) {
  std::lock_guard lock(mu_);
  // Write-temp, fdatasync, rename, fsync the directory: readers of `path_`
  // see the old log or the new one, never a prefix, and the rename
  // survives a crash once reset returns.
  std::filesystem::path tmp = path_;
  tmp += ".tmp";
  int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tfd < 0) fail("open", tmp);
  try {
    write_all(tfd, bytes, tmp);
    if (::fdatasync(tfd) != 0) fail("fdatasync", tmp);
  } catch (const LogDeviceError&) {
    ::close(tfd);
    throw;
  }
  if (::close(tfd) != 0) fail("close", tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  if (ec) throw LogDeviceError("rename failed for " + path_.string());
  // Appends go to the new file even if the directory sync below throws.
  if (fd_ >= 0) ::close(fd_);
  open_locked();
  sync_directory(path_.parent_path());
}

}  // namespace gs::xmldb
