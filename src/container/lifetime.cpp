#include "container/lifetime.hpp"

#include <charconv>
#include <vector>

#include "soap/envelope.hpp"
#include "telemetry/event_log.hpp"

namespace gs::container {

common::TimeMs parse_lifetime_ms(const std::string& text) {
  common::TimeMs value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [p, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || p != end || text.empty()) {
    throw soap::SoapFault("Sender", "malformed lifetime '" + text + "'");
  }
  return value;
}

LifetimeManager::LifetimeManager(const common::Clock& clock,
                                 telemetry::MetricsRegistry* metrics)
    : clock_(clock),
      failures_((metrics ? *metrics : telemetry::MetricsRegistry::global())
                    .counter("container.lifetime_failures")) {}

void LifetimeManager::publish_earliest() {
  earliest_.store(deadlines_.empty() ? kNever : deadlines_.begin()->first,
                  std::memory_order_release);
}

LifetimeManager::Handle LifetimeManager::schedule(
    common::TimeMs termination_time, std::function<void()> on_destroy) {
  std::lock_guard lock(mu_);
  Handle handle = next_++;
  entries_[handle] = {termination_time, std::move(on_destroy)};
  if (termination_time != kNever) {
    deadlines_.emplace(termination_time, handle);
    publish_earliest();
  }
  return handle;
}

bool LifetimeManager::set_termination_time(Handle handle,
                                           common::TimeMs termination_time) {
  std::lock_guard lock(mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) return false;
  common::TimeMs& current = it->second.termination_time;
  if (current != kNever) deadlines_.erase({current, handle});
  current = termination_time;
  if (termination_time != kNever) deadlines_.emplace(termination_time, handle);
  publish_earliest();
  return true;
}

std::optional<common::TimeMs> LifetimeManager::termination_time(
    Handle handle) const {
  std::lock_guard lock(mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) return std::nullopt;
  return it->second.termination_time;
}

std::function<void()> LifetimeManager::take(
    std::map<Handle, Entry>::iterator it) {
  if (it->second.termination_time != kNever) {
    deadlines_.erase({it->second.termination_time, it->first});
  }
  std::function<void()> callback = std::move(it->second.on_destroy);
  entries_.erase(it);
  return callback;
}

bool LifetimeManager::destroy(Handle handle) {
  std::function<void()> callback;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(handle);
    if (it == entries_.end()) return false;
    callback = take(it);
    publish_earliest();
  }
  if (callback) callback();
  return true;
}

bool LifetimeManager::cancel(Handle handle) {
  std::lock_guard lock(mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) return false;
  take(it);
  publish_earliest();
  return true;
}

size_t LifetimeManager::sweep() {
  common::TimeMs now = clock_.now();
  // Nothing due: return without the lock. A deadline another thread is
  // publishing right now is found by the next sweep.
  if (earliest_.load(std::memory_order_acquire) > now) return 0;
  std::vector<std::function<void()>> callbacks;
  {
    std::lock_guard lock(mu_);
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
      callbacks.push_back(take(entries_.find(deadlines_.begin()->second)));
    }
    publish_earliest();
  }
  // The entries are already gone, so a callback skipped here would never
  // run: one failing destruction must not cost the others theirs, nor fail
  // the unrelated request whose sweep found it due.
  auto failed = [this](const char* error) {
    failures_.add();
    telemetry::EventLog::global().emit(telemetry::Level::kWarn, "lifetime",
                                       "scheduled destruction failed",
                                       {{"error", error}});
  };
  for (auto& cb : callbacks) {
    if (!cb) continue;
    try {
      cb();
    } catch (const std::exception& e) {
      failed(e.what());
    } catch (...) {
      failed("unknown exception");
    }
  }
  return callbacks.size();
}

size_t LifetimeManager::active() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

}  // namespace gs::container
