// In-memory span recording for the benchmark's traced runs, and the pure
// arithmetic the report is built from (self time, percentiles).
//
// Spans are recorded by the benchmark's own probes around the program's
// public entry points (client caller, container endpoint, two chain
// stages, the storage backend, the notification sink). Every span lives in
// a per-thread buffer; nothing is written out until the run ends.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// What a span brackets. Each kind belongs to exactly one layer.
enum class Kind : std::uint8_t {
  kOpGet,
  kOpSet,
  kOpCreate,
  kOpSubscribe,
  kOpUnsubscribe,
  kOpDestroy,
  kCaller,        // client SoapCaller::call
  kEndpoint,      // Container::handle behind the virtual network
  kSecurityStage, // chain stages from "security" inward
  kDispatchWsrf,  // chain stages from "dispatch" inward, WSRF container
  kDispatchWst,   // chain stages from "dispatch" inward, WS-Transfer container
  kDbGet,
  kDbPut,
  kDbRemove,
  kDbOther,       // list / contains
  kDelivery,      // notification sink SoapCaller::call
  kCount,
};

enum class Layer : std::uint8_t {
  kClient,
  kNet,
  kContainer,
  kSecurity,
  kServiceWsrf,
  kServiceWst,
  kXmldb,
  kDelivery,
  kCount,
};

Layer layer_of(Kind kind);

struct Span {
  Kind kind = Kind::kCount;
  std::uint8_t tag = 0;        // free for the recorder (op spans: the stack)
  std::uint64_t request = 0;   // the op this span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    // index into the same span vector; -1 = root
};

// --- recording ---------------------------------------------------------------

/// Turns recording on or off. Set between phases, never while client
/// threads run.
void set_tracing(bool on);
bool tracing();

/// steady_clock nanoseconds.
std::int64_t now_ns();

/// Marks the ops that spans on this thread belong to from now on.
void set_request(std::uint64_t request);

/// Records one span on the calling thread for the scope's lifetime; the
/// innermost open scope on the same thread is its parent. A no-op while
/// tracing is off.
class SpanScope {
 public:
  explicit SpanScope(Kind kind, std::uint8_t tag = 0);
  /// Opens the span at an already-taken timestamp (the load generator reuses its
  /// latency clock reading so op spans and latency samples agree).
  SpanScope(Kind kind, std::uint8_t tag, std::int64_t start_ns);
  ~SpanScope();
  /// Closes the span at `end_ns` instead of at destruction time.
  void close(std::int64_t end_ns);

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int32_t index_ = -1;
};

/// Moves every thread's recorded spans out (parents remapped into the
/// returned vector) and clears the buffers. Call only while no recording
/// thread runs.
std::vector<Span> take_spans();

// --- arithmetic ------------------------------------------------------------

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children clipped to the parent; overlapping
/// children counted once). Never negative, never more than the duration.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
/// Reorders `samples`.
std::int64_t percentile(std::vector<std::int64_t>& samples, double p);

}  // namespace perfbench
