#include "telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "telemetry/metrics.hpp"

namespace gs::telemetry {

namespace {

thread_local SpanScope* tl_top = nullptr;

}  // namespace

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t steady_now_us() { return steady_now_ns() / 1000; }

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
  std::int64_t close_ns = steady_now_ns();
  std::int64_t duration_us = close_ns / 1000 - start_us_;
  if (histogram_) histogram_->record(static_cast<std::uint64_t>(duration_us));
  if (log_) log_->record_closed(*this, duration_us, close_ns);
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

struct TraceLog::Chunk {
  explicit Chunk(std::size_t slots) : slots(new Slot[slots]) {}

  std::unique_ptr<Slot[]> slots;
  std::size_t count = 0;
  std::int64_t min_close_ns = INT64_MAX;
  std::int64_t max_close_ns = INT64_MIN;
};

namespace {

// A sixteenth of the capacity, so a small log seals (and evicts) often
// enough to stay near its bound, and at most 64 slots (4 KiB), so the
// shared list is locked once per 64 spans a thread records.
std::size_t chunk_slots_for(std::size_t capacity) {
  return std::clamp<std::size_t>(capacity / 16, 1, 64);
}

}  // namespace

TraceLog::TraceLog(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      chunk_slots_(chunk_slots_for(capacity_)) {}

TraceLog::~TraceLog() = default;

void TraceLog::record(SpanRecord span) {
  Slot slot{span.trace_id, span.span_id, span.parent_span_id, nullptr, nullptr,
            span.start_us, span.duration_us, steady_now_ns()};
  {
    std::lock_guard lock(mu_);
    slot.name = interned_.insert(std::move(span.name)).first->c_str();
    slot.layer = interned_.insert(std::move(span.layer)).first->c_str();
  }
  record_slot(slot);
}

void TraceLog::record_closed(const SpanScope& span, std::int64_t duration_us,
                             std::int64_t close_ns) {
  record_slot({span.trace_id_, span.span_id_, span.parent_span_id_, span.name_,
               span.layer_, span.start_us_, duration_us, close_ns});
}

void TraceLog::record_slot(const Slot& slot) {
  Shard& shard = shards_[thread_shard()];
  std::lock_guard lock(shard.mu);
  if (!shard.open) {
    std::lock_guard log_lock(mu_);
    shard.open = take_chunk_locked();
  }
  Chunk& chunk = *shard.open;
  chunk.slots[chunk.count++] = slot;
  chunk.min_close_ns = std::min(chunk.min_close_ns, slot.close_ns);
  chunk.max_close_ns = std::max(chunk.max_close_ns, slot.close_ns);
  if (chunk.count == chunk_slots_) seal(shard);
}

std::unique_ptr<TraceLog::Chunk> TraceLog::take_chunk_locked() {
  std::unique_ptr<Chunk> chunk =
      spare_ ? std::move(spare_) : std::make_unique<Chunk>(chunk_slots_);
  chunk->count = 0;
  chunk->min_close_ns = INT64_MAX;
  chunk->max_close_ns = INT64_MIN;
  return chunk;
}

void TraceLog::seal(Shard& shard) {
  std::lock_guard lock(mu_);
  sealed_.push_back(std::move(shard.open));
  // Evict the sealed chunk whose newest span is oldest while the chunks
  // wholly newer than it hold `capacity` spans: none of its spans can be
  // among the newest `capacity` again. Open chunks are not counted, so
  // the test errs towards keeping.
  for (;;) {
    auto oldest = std::min_element(
        sealed_.begin(), sealed_.end(),
        [](const auto& a, const auto& b) { return a->max_close_ns < b->max_close_ns; });
    std::size_t newer = 0;
    for (const auto& c : sealed_) {
      if (c->min_close_ns > (*oldest)->max_close_ns) newer += c->count;
    }
    if (newer < capacity_) break;
    if (!spare_) spare_ = std::move(*oldest);
    sealed_.erase(oldest);
  }
  shard.open = take_chunk_locked();
}

std::vector<TraceLog::Slot> TraceLog::merged() const {
  auto shard_locks = lock_shards();
  std::lock_guard lock(mu_);
  std::vector<Slot> all;
  auto append = [&all](const Chunk& c) {
    all.insert(all.end(), c.slots.get(), c.slots.get() + c.count);
  };
  for (const auto& c : sealed_) append(*c);
  for (const Shard& shard : shards_) {
    if (shard.open) append(*shard.open);
  }
  // Stable: a thread's spans are gathered in its recording order, which
  // breaks its own close-time ties.
  std::stable_sort(all.begin(), all.end(), [](const Slot& a, const Slot& b) {
    return a.close_ns < b.close_ns;
  });
  if (all.size() > capacity_) {
    all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(capacity_));
  }
  return all;
}

std::array<std::unique_lock<std::mutex>, kMetricShards> TraceLog::lock_shards()
    const {
  std::array<std::unique_lock<std::mutex>, kMetricShards> locks;
  for (std::size_t i = 0; i < kMetricShards; ++i) {
    locks[i] = std::unique_lock(shards_[i].mu);
  }
  return locks;
}

SpanRecord TraceLog::to_record(const Slot& slot) {
  return {slot.trace_id, slot.span_id, slot.parent_span_id, slot.name,
          slot.layer, slot.start_us, slot.duration_us};
}

std::vector<SpanRecord> TraceLog::snapshot() const {
  std::vector<Slot> slots = merged();
  std::vector<SpanRecord> out;
  out.reserve(slots.size());
  for (const Slot& slot : slots) out.push_back(to_record(slot));
  return out;
}

std::vector<SpanRecord> TraceLog::spans_for(std::uint64_t trace_id) const {
  std::vector<SpanRecord> out;
  for (const Slot& slot : merged()) {
    if (slot.trace_id == trace_id) out.push_back(to_record(slot));
  }
  return out;
}

std::size_t TraceLog::size() const {
  auto shard_locks = lock_shards();
  std::lock_guard lock(mu_);
  std::size_t total = 0;
  for (const auto& c : sealed_) total += c->count;
  for (const Shard& shard : shards_) {
    if (shard.open) total += shard.open->count;
  }
  return std::min(total, capacity_);
}

void TraceLog::clear() {
  auto shard_locks = lock_shards();
  std::lock_guard lock(mu_);
  sealed_.clear();
  for (Shard& shard : shards_) shard.open.reset();
  spare_.reset();
}

TraceLog& TraceLog::global() {
  static TraceLog log;
  return log;
}

}  // namespace gs::telemetry
