#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>

namespace perfbench {

Layer layer_of(Kind kind) {
  switch (kind) {
    case Kind::kOpGet:
    case Kind::kOpSet:
    case Kind::kOpCreate:
    case Kind::kOpSubscribe:
    case Kind::kOpUnsubscribe:
    case Kind::kOpDestroy: return Layer::kClient;
    case Kind::kCaller: return Layer::kNet;
    case Kind::kEndpoint: return Layer::kContainer;
    case Kind::kSecurityStage: return Layer::kSecurity;
    case Kind::kDispatchWsrf: return Layer::kServiceWsrf;
    case Kind::kDispatchWst: return Layer::kServiceWst;
    case Kind::kDbGet:
    case Kind::kDbPut:
    case Kind::kDbRemove:
    case Kind::kDbOther: return Layer::kXmldb;
    case Kind::kDelivery:
    case Kind::kCount: break;
  }
  return Layer::kDelivery;
}

namespace {

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<std::int32_t> open;
  std::uint64_t request = 0;
};

std::atomic<bool> g_tracing{false};
std::mutex g_buffers_mu;
// Owned here, not by the thread, so spans survive the thread's exit.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
thread_local ThreadBuffer* tl_buffer = nullptr;

ThreadBuffer& local_buffer() {
  if (!tl_buffer) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.reserve(1 << 16);
    tl_buffer = buffer.get();
    std::lock_guard lock(g_buffers_mu);
    g_buffers.push_back(std::move(buffer));
  }
  return *tl_buffer;
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_request(std::uint64_t request) {
  if (tracing()) local_buffer().request = request;
}

SpanScope::SpanScope(Kind kind, std::uint8_t tag)
    : SpanScope(kind, tag, tracing() ? now_ns() : 0) {}

SpanScope::SpanScope(Kind kind, std::uint8_t tag, std::int64_t start_ns) {
  if (!tracing()) return;
  ThreadBuffer& buffer = local_buffer();
  index_ = static_cast<std::int32_t>(buffer.spans.size());
  Span span;
  span.kind = kind;
  span.tag = tag;
  span.request = buffer.request;
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  span.parent = buffer.open.empty() ? -1 : buffer.open.back();
  buffer.spans.push_back(span);
  buffer.open.push_back(index_);
}

SpanScope::~SpanScope() {
  if (index_ >= 0) close(now_ns());
}

void SpanScope::close(std::int64_t end_ns) {
  if (index_ < 0) return;
  ThreadBuffer& buffer = local_buffer();
  buffer.spans[static_cast<std::size_t>(index_)].end_ns = end_ns;
  buffer.open.pop_back();
  index_ = -1;
}

std::vector<Span> take_spans() {
  std::lock_guard lock(g_buffers_mu);
  std::size_t total = 0;
  for (const auto& buffer : g_buffers) total += buffer->spans.size();
  std::vector<Span> out;
  out.reserve(total);
  for (const auto& buffer : g_buffers) {
    auto offset = static_cast<std::int32_t>(out.size());
    for (Span span : buffer->spans) {
      if (span.parent >= 0) span.parent += offset;
      out.push_back(span);
    }
    buffer->spans.clear();
    buffer->open.clear();
  }
  return out;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  // Children of span i are child_of[first[i] .. first[i + 1]) (a compressed
  // adjacency list: two flat arrays instead of one vector per span).
  const std::size_t n = spans.size();
  auto valid_parent = [n](std::int32_t p) {
    return p >= 0 && static_cast<std::size_t>(p) < n;
  };
  std::vector<std::uint32_t> first(n + 1, 0);
  for (const Span& span : spans) {
    if (valid_parent(span.parent)) ++first[static_cast<std::size_t>(span.parent) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) first[i + 1] += first[i];
  std::vector<std::uint32_t> child_of(first[n]);
  std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (valid_parent(spans[i].parent)) {
      child_of[fill[static_cast<std::size_t>(spans[i].parent)]++] =
          static_cast<std::uint32_t>(i);
    }
  }

  std::vector<std::int64_t> self(n, 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& span = spans[i];
    std::int64_t duration = std::max<std::int64_t>(0, span.end_ns - span.start_ns);
    cover.clear();
    for (std::uint32_t k = first[i]; k < first[i + 1]; ++k) {
      const Span& child = spans[child_of[k]];
      std::int64_t lo = std::max(child.start_ns, span.start_ns);
      std::int64_t hi = std::min(child.end_ns, span.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (auto [lo, hi] : cover) {
      lo = std::max(lo, reach);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = std::max<std::int64_t>(0, duration - covered);
  }
  return self;
}

std::int64_t percentile(std::vector<std::int64_t>& samples, double p) {
  if (samples.empty()) return 0;
  auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

}  // namespace perfbench
