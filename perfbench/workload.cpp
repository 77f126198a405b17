#include "workload.hpp"

namespace perfbench {

namespace {

// splitmix64: fully specified, so a seed names the same sequence on every
// platform and standard library.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

constexpr std::int32_t kMaxValue = 1'000'000;

std::int32_t fresh_value(Rng& rng, std::int32_t previous) {
  auto v = static_cast<std::int32_t>(1 + rng.below(kMaxValue));
  return v == previous ? v % kMaxValue + 1 : v;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "read_mostly") return Workload::kReadMostly;
  if (name == "resource_churn") return Workload::kResourceChurn;
  if (name == "signed_mix") return Workload::kSignedMix;
  return std::nullopt;
}

WorkloadShape shape_of(Workload workload) {
  switch (workload) {
    case Workload::kReadMostly: return {.x509 = false, .pool = 256};
    case Workload::kResourceChurn: return {.x509 = false, .pool = 0};
    case Workload::kSignedMix: return {.x509 = true, .pool = 32};
  }
  return {};
}

std::vector<Op> make_ops(Workload workload, std::uint64_t seed, unsigned client) {
  Rng rng{seed * 0x2545f4914f6cdd1dull + client + 1};
  std::vector<Op> ops;
  if (workload == Workload::kResourceChurn) {
    // Full lifecycles, one per stack, interleaved request by request.
    static constexpr OpKind kLifecycle[] = {
        OpKind::kCreate, OpKind::kSubscribe, OpKind::kSet,        OpKind::kSet,
        OpKind::kSet,    OpKind::kGet,       OpKind::kUnsubscribe, OpKind::kDestroy};
    constexpr std::size_t kLifecycles = 1 << 13;
    ops.reserve(kLifecycles * 16);
    for (std::size_t l = 0; l < kLifecycles; ++l) {
      std::int32_t previous[2] = {0, 0};
      for (OpKind kind : kLifecycle) {
        for (Stack stack : {Stack::kWsrf, Stack::kWst}) {
          Op op{.kind = kind, .stack = stack, .counter = 0, .value = 0};
          if (kind == OpKind::kSet) {
            auto s = static_cast<std::size_t>(stack);
            op.value = previous[s] = fresh_value(rng, previous[s]);
          }
          ops.push_back(op);
        }
      }
    }
    return ops;
  }
  // Get/Set mix: 90% Get, 10% Set, on a seeded-uniform counter of the pool.
  const std::size_t pool = shape_of(workload).pool;
  const std::size_t length = workload == Workload::kSignedMix ? 1 << 13 : 1 << 17;
  ops.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    Op op;
    op.stack = i % 2 == 0 ? Stack::kWsrf : Stack::kWst;
    op.kind = rng.below(100) < 90 ? OpKind::kGet : OpKind::kSet;
    op.counter = static_cast<std::uint16_t>(rng.below(pool));
    if (op.kind == OpKind::kSet) op.value = fresh_value(rng, 0);
    ops.push_back(op);
  }
  return ops;
}

std::string encode_ops(const std::vector<Op>& ops) {
  std::string out;
  out.reserve(ops.size() * 8);
  for (const Op& op : ops) {
    out.push_back(static_cast<char>(op.kind));
    out.push_back(static_cast<char>(op.stack));
    for (int b = 0; b < 2; ++b) out.push_back(static_cast<char>(op.counter >> (8 * b)));
    auto value = static_cast<std::uint32_t>(op.value);
    for (int b = 0; b < 4; ++b) out.push_back(static_cast<char>(value >> (8 * b)));
  }
  return out;
}

}  // namespace perfbench
