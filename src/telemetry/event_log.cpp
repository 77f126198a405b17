#include "telemetry/event_log.hpp"

#include <algorithm>
#include <sstream>

#include "telemetry/trace.hpp"

namespace gs::telemetry {

const char* level_name(Level level) {
  switch (level) {
    case Level::kDebug: return "DEBUG";
    case Level::kInfo: return "INFO";
    case Level::kWarn: return "WARN";
    case Level::kError: return "ERROR";
  }
  return "?";
}

std::string format_event(const Event& event) {
  std::ostringstream out;
  out << event.ts_us << "us " << level_name(event.level) << " ["
      << event.component << "] " << event.message;
  if (!event.attrs.empty()) {
    out << " {";
    bool first = true;
    for (const auto& [key, value] : event.attrs) {
      if (!first) out << ", ";
      first = false;
      out << key << '=' << value;
    }
    out << '}';
  }
  if (event.trace_id != 0) {
    out << " trace=" << std::hex << event.trace_id << std::dec;
  }
  return out.str();
}

EventLog::EventLog(std::size_t capacity)
    : ring_(capacity), start_us_(steady_now_us()) {}

void EventLog::log(Event event) {
  level_counts_[static_cast<std::size_t>(event.level)].fetch_add(
      1, std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  event.seq = ++last_seq_;
  if (ring_.push(std::move(event))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void EventLog::emit(Level level, std::string component, std::string message,
                    std::vector<std::pair<std::string, std::string>> attrs) {
  Event event;
  event.ts_us = steady_now_us();
  event.level = level;
  event.component = std::move(component);
  event.message = std::move(message);
  event.trace_id = current_context().trace_id;
  event.attrs = std::move(attrs);
  log(std::move(event));
}

std::vector<Event> EventLog::snapshot() const {
  std::lock_guard lock(mu_);
  return ring_.ordered();
}

std::vector<Event> EventLog::recent(std::size_t n, Level min_level) const {
  std::lock_guard lock(mu_);
  std::vector<Event> out;
  // Walk newest-to-oldest collecting matches, then restore oldest-first.
  for (std::size_t i = ring_.size(); i-- > 0 && out.size() < n;) {
    if (ring_[i].level >= min_level) out.push_back(ring_[i]);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<Event> EventLog::events_since(std::uint64_t seq) const {
  std::lock_guard lock(mu_);
  std::vector<Event> out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].seq > seq) out.push_back(ring_[i]);
  }
  return out;
}

std::uint64_t EventLog::last_seq() const {
  std::lock_guard lock(mu_);
  return last_seq_;
}

std::uint64_t EventLog::count(Level level) const {
  return level_counts_[static_cast<std::size_t>(level)].load(
      std::memory_order_relaxed);
}

std::uint64_t EventLog::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::size_t EventLog::size() const {
  std::lock_guard lock(mu_);
  return ring_.size();
}

void EventLog::clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
}

std::string EventLog::to_text() const {
  std::string out;
  for (const Event& event : snapshot()) {
    out += format_event(event);
    out += '\n';
  }
  return out;
}

EventLog& EventLog::global() {
  static EventLog log;
  return log;
}

}  // namespace gs::telemetry
