#include "container/registry.hpp"

#include <array>
#include <condition_variable>
#include <unordered_map>
#include <utility>

#include "telemetry/metrics.hpp"

namespace gs::container {

// The in-flight count is sharded by thread, as telemetry::Counter is: a pin
// adds one on its thread's shard and the release subtracts one on its own,
// so a shard may go negative but the sum is the live pin count. The count
// and `retired` use sequentially consistent operations: a pin counts itself
// and then checks `retired`, an undeploy sets `retired` and then sums, so
// either the pin backs out or the undeploy waits for it.
struct ServiceHandle::Entry {
  struct alignas(64) Shard {
    std::atomic<long> pins{0};
  };

  explicit Entry(Service& s) : service(&s) {}

  long inflight() const {
    long total = 0;
    for (const Shard& shard : shards) total += shard.pins.load();
    return total;
  }

  Service* const service;
  std::atomic<bool> retired{false};  // undeployed, or replaced by a deploy
  std::mutex mu;                     // pairs a release with `drained`
  std::condition_variable drained;
  std::array<Shard, telemetry::kMetricShards> shards;
};

struct ServiceRegistry::Table {
  std::unordered_map<std::string, ServiceHandle::Entry*> entries;
};

ServiceHandle::~ServiceHandle() { release(); }

ServiceHandle::ServiceHandle(ServiceHandle&& other) noexcept
    : entry_(std::exchange(other.entry_, nullptr)) {}

ServiceHandle& ServiceHandle::operator=(ServiceHandle&& other) noexcept {
  if (this != &other) {
    release();
    entry_ = std::exchange(other.entry_, nullptr);
  }
  return *this;
}

Service* ServiceHandle::get() const noexcept {
  return entry_ ? entry_->service : nullptr;
}

void ServiceHandle::release() {
  if (!entry_) return;
  Entry* entry = std::exchange(entry_, nullptr);
  entry->shards[telemetry::thread_shard()].pins.fetch_sub(1);
  if (entry->retired.load()) {
    // An undeploy may be waiting: taking the mutex orders this release
    // after its predicate check or before its wait, so no wakeup is lost.
    { std::lock_guard lock(entry->mu); }
    entry->drained.notify_all();
  }
}

ServiceRegistry::ServiceRegistry() {
  tables_.push_back(std::make_unique<Table>());
  table_.store(tables_.back().get());
}

ServiceRegistry::~ServiceRegistry() = default;

ServiceHandle::Entry* ServiceRegistry::publish(std::unique_ptr<Table> next,
                                               const std::string& path) {
  const Table& current = *table_.load();
  auto it = current.entries.find(path);
  ServiceHandle::Entry* replaced = it == current.entries.end() ? nullptr : it->second;
  table_.store(next.get());
  tables_.push_back(std::move(next));
  // After the new table: a pin that sees `retired` looks again and finds it.
  if (replaced) replaced->retired.store(true);
  return replaced;
}

void ServiceRegistry::deploy(const std::string& path, Service& service) {
  std::lock_guard lock(write_mu_);
  entries_.push_back(std::make_unique<ServiceHandle::Entry>(service));
  auto next = std::make_unique<Table>(*table_.load());
  next->entries[path] = entries_.back().get();
  publish(std::move(next), path);
}

bool ServiceRegistry::undeploy(const std::string& path) {
  ServiceHandle::Entry* entry;
  {
    std::lock_guard lock(write_mu_);
    auto next = std::make_unique<Table>(*table_.load());
    if (next->entries.erase(path) == 0) return false;
    entry = publish(std::move(next), path);
  }
  // The path is gone from the table: no new pins. Wait out existing ones
  // so the caller can destroy the service after we return.
  std::unique_lock lock(entry->mu);
  entry->drained.wait(lock, [&] { return entry->inflight() == 0; });
  return true;
}

ServiceHandle ServiceRegistry::pin(const std::string& path) const {
  for (;;) {
    const Table& table = *table_.load(std::memory_order_acquire);
    auto it = table.entries.find(path);
    if (it == table.entries.end()) return ServiceHandle();
    ServiceHandle::Entry* entry = it->second;
    entry->shards[telemetry::thread_shard()].pins.fetch_add(1);
    ServiceHandle handle(entry);
    if (!entry->retired.load()) return handle;
    // Undeployed or replaced since the table load: back out (the release
    // wakes a drain) and read the newer table.
  }
}

std::vector<std::string> ServiceRegistry::paths() const {
  std::vector<std::string> out;
  for (const auto& [path, entry] : table_.load(std::memory_order_acquire)->entries) {
    out.push_back(path);
  }
  return out;
}

}  // namespace gs::container
