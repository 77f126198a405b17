// Workload definitions and the seeded operation sequences the clients
// replay. Sequences are generated before timing starts; the program under
// test only ever sees the generated operations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload : std::uint8_t { kReadMostly, kResourceChurn, kSignedMix };

std::optional<Workload> parse_workload(std::string_view name);

enum class OpKind : std::uint8_t { kGet, kSet, kCreate, kSubscribe, kUnsubscribe, kDestroy };
enum class Stack : std::uint8_t { kWsrf, kWst };

struct Op {
  OpKind kind = OpKind::kGet;
  Stack stack = Stack::kWsrf;
  std::uint16_t counter = 0;  // index into the client's pool on that stack
  std::int32_t value = 0;     // the value a Set writes
};

struct WorkloadShape {
  bool x509 = false;          // message-level signing on both ends
  std::size_t pool = 0;       // counters per stack per client (0 = churn)
};

WorkloadShape shape_of(Workload workload);

/// The op sequence client `client` replays under `seed` (replayed
/// cyclically if the run outlasts it). Requests alternate between the two
/// stacks, so both see identical traffic.
std::vector<Op> make_ops(Workload workload, std::uint64_t seed, unsigned client);

/// Canonical byte encoding of a sequence (the determinism check).
std::string encode_ops(const std::vector<Op>& ops);

}  // namespace perfbench
