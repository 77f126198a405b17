#include "telemetry/trace.hpp"

#include <chrono>

#include "telemetry/metrics.hpp"

namespace gs::telemetry {

namespace {

thread_local SpanScope* tl_top = nullptr;

}  // namespace

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t new_trace_id() {
  // Ordinal in the top 24 bits, sequence (from 1) in the low 40: distinct
  // across threads, nonzero before mixing.
  thread_local std::uint64_t sequence = 0;
  std::uint64_t raw =
      (static_cast<std::uint64_t>(thread_ordinal()) << 40) | ++sequence;
  // splitmix64's finalizer: a bijection, so distinct inputs stay distinct.
  raw += 0x9e3779b97f4a7c15ULL;
  raw = (raw ^ (raw >> 30)) * 0xbf58476d1ce4e5b9ULL;
  raw = (raw ^ (raw >> 27)) * 0x94d049bb133111ebULL;
  raw ^= raw >> 31;
  return raw == 0 ? 1 : raw;
}

TraceContext current_context() {
  return tl_top ? tl_top->context() : TraceContext{};
}

SpanScope::SpanScope(const char* name, const char* layer, TraceLog* log,
                     Histogram* histogram)
    : name_(name),
      layer_(layer),
      log_(log),
      histogram_(histogram),
      span_id_(new_trace_id()),
      start_us_(steady_now_us()),
      prev_(tl_top) {
  if (prev_) {
    trace_id_ = prev_->trace_id_;
    parent_span_id_ = prev_->span_id_;
  } else {
    trace_id_ = new_trace_id();
    parent_span_id_ = 0;
  }
  tl_top = this;
}

SpanScope::~SpanScope() {
  tl_top = prev_;
  std::int64_t duration_us = steady_now_us() - start_us_;
  if (histogram_) histogram_->record(static_cast<std::uint64_t>(duration_us));
  if (log_) log_->record_closed(*this, duration_us);
}

void adopt_remote(const TraceContext& remote) {
  if (!remote.valid()) return;
  SpanScope* outermost_rewritten = nullptr;
  for (SpanScope* s = tl_top; s && s->trace_id_ != remote.trace_id; s = s->prev_) {
    s->trace_id_ = remote.trace_id;
    outermost_rewritten = s;
  }
  if (outermost_rewritten) {
    outermost_rewritten->parent_span_id_ = remote.span_id;
  }
}

TraceLog::TraceLog(std::size_t capacity) : ring_(capacity) {}

void TraceLog::record(SpanRecord span) {
  std::lock_guard lock(mu_);
  ring_.push(std::move(span));
}

void TraceLog::record_closed(const SpanScope& span, std::int64_t duration_us) {
  std::lock_guard lock(mu_);
  SpanRecord& slot = ring_.claim();
  slot.trace_id = span.trace_id_;
  slot.span_id = span.span_id_;
  slot.parent_span_id = span.parent_span_id_;
  slot.name.assign(span.name_);
  slot.layer.assign(span.layer_);
  slot.start_us = span.start_us_;
  slot.duration_us = duration_us;
}

std::vector<SpanRecord> TraceLog::snapshot() const {
  std::lock_guard lock(mu_);
  return ring_.ordered();
}

std::vector<SpanRecord> TraceLog::spans_for(std::uint64_t trace_id) const {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].trace_id == trace_id) out.push_back(ring_[i]);
  }
  return out;
}

std::size_t TraceLog::size() const {
  std::lock_guard lock(mu_);
  return ring_.size();
}

void TraceLog::clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
}

TraceLog& TraceLog::global() {
  static TraceLog log;
  return log;
}

}  // namespace gs::telemetry
