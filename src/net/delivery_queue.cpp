#include "net/delivery_queue.hpp"

#include <chrono>
#include <stdexcept>

namespace gs::net {

DeliveryQueue::DeliveryQueue(Config config) : config_(std::move(config)) {
  if (!config_.caller) {
    throw std::invalid_argument("DeliveryQueue needs a caller");
  }
}

bool DeliveryQueue::deliver(const std::string& destination,
                            const soap::Envelope& envelope) {
  auto started = std::chrono::steady_clock::now();
  bool ok = false;
  try {
    config_.caller->call(destination, envelope);
    ok = true;
  } catch (const std::exception&) {
    // Transport exhausted its retries (or the response was garbage); the
    // route's failure accounting decides what happens next.
  }
  if (config_.deliver_us) {
    config_.deliver_us->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count()));
  }
  if (ok && config_.delivered) config_.delivered->add();
  if (!ok && config_.failures) config_.failures->add();
  return ok;
}

void DeliveryQueue::dead_letter_locked() {
  ++dead_lettered_;
  if (config_.dead_letters) config_.dead_letters->add();
}

void DeliveryQueue::dead_letter_event(const std::string& destination,
                                      const char* reason) {
  if (!config_.events) return;
  config_.events->emit(telemetry::Level::kWarn, config_.component,
                       "message dead-lettered",
                       {{"destination", destination}, {"reason", reason}});
}

void DeliveryQueue::eviction_event(const std::string& destination) {
  if (!config_.events) return;
  config_.events->emit(
      telemetry::Level::kError, config_.component, "destination evicted",
      {{"destination", destination},
       {"consecutive_failures",
        std::to_string(config_.evict_after_consecutive_failures)}});
}

DeliveryQueue::Submit DeliveryQueue::submit(const std::string& destination,
                                            const soap::Envelope& envelope) {
  bool was_evicted = false;
  {
    std::lock_guard lock(mu_);
    auto it = routes_.find(destination);
    was_evicted = it != routes_.end() && it->second.evicted;
    if (was_evicted) dead_letter_locked();
  }
  if (was_evicted) {
    dead_letter_event(destination, "destination evicted");
    return Submit::kRejected;
  }
  bool ok = deliver(destination, envelope);
  bool evict_now = false;
  {
    std::lock_guard lock(mu_);
    if (ok) {
      // A healthy destination needs no route: a route with no failures
      // that is not evicted behaves as none, so the table holds only
      // destinations with a live failure streak.
      routes_.erase(destination);
      return Submit::kDelivered;
    }
    Route& route = routes_[destination];
    dead_letter_locked();
    ++route.consecutive_failures;
    if (config_.evict_after_consecutive_failures > 0 && !route.evicted &&
        route.consecutive_failures >= config_.evict_after_consecutive_failures) {
      route.evicted = true;
      if (config_.evictions) config_.evictions->add();
      evict_now = true;
    }
  }
  dead_letter_event(destination, "delivery failed");
  if (evict_now) eviction_event(destination);
  return Submit::kRejected;
}

bool DeliveryQueue::evicted(const std::string& destination) const {
  std::lock_guard lock(mu_);
  auto it = routes_.find(destination);
  return it != routes_.end() && it->second.evicted;
}

void DeliveryQueue::reinstate(const std::string& destination) {
  std::lock_guard lock(mu_);
  routes_.erase(destination);
}

std::size_t DeliveryQueue::routes() const {
  std::lock_guard lock(mu_);
  return routes_.size();
}

std::uint64_t DeliveryQueue::dead_lettered() const {
  std::lock_guard lock(mu_);
  return dead_lettered_;
}

}  // namespace gs::net
