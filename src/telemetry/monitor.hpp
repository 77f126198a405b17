// Push-based grid monitoring: the container publishes its own telemetry
// over BOTH of the paper's stacks.
//
// PR 1 exposed telemetry pull-only (poll the Telemetry resource); the era's
// grid monitors (MDS index services, JClarens) pushed status to
// subscribers. MonitorProducer dogfoods our WS-BaseNotification and
// WS-Eventing implementations as that transport: each tick it snapshots a
// MetricsRegistry, computes the delta since the previous tick, and
// publishes it on the `gs:Telemetry` topic through wsn and/or wse — so
// monitoring traffic rides the same delivery queues, retries, and eviction
// machinery as application traffic, including under injected faults.
// Alerts come from one engine, an SloTracker judging the TimeSeriesStore
// the tick samples: each objective's transitions (one when it starts
// firing, one when it recovers) leave as `gs:Telemetry/Alert`
// notifications. A one-tick threshold rule is a kThreshold objective
// with 0 ms windows.
//
// MonitorConsumer is the other end: a network endpoint that accepts
// snapshot/alert messages from either stack (wrapped wsn Notify or raw
// wse events) and maintains a last-known-state table per producer.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "net/virtual_network.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/timeseries.hpp"
#include "wse/service.hpp"
#include "wsn/producer.hpp"

namespace gs::telemetry {

/// WS-Topics names monitoring traffic is published on. A Simple-dialect
/// subscription on `gs:Telemetry` receives both (subtree match); a
/// Concrete one on `gs:Telemetry/Alert` receives alerts only.
inline constexpr const char* kTelemetryTopic = "gs:Telemetry";
inline constexpr const char* kAlertTopic = "gs:Telemetry/Alert";

/// wsa:Action values stamped on WS-Eventing monitoring events.
std::string snapshot_action();
std::string alert_action();

/// A TopicNamespace containing the monitoring topics — merge or pass to
/// the wsn::NotificationProducer that will carry telemetry.
wsn::TopicNamespace monitor_topics();

class MonitorProducer {
 public:
  struct Config {
    MetricsRegistry* registry = &MetricsRegistry::global();
    /// Identity stamped into every snapshot/alert (`producer` attribute) —
    /// WS-Eventing events carry no ProducerReference, so consumers key
    /// their tables on this.
    std::string producer_address;
    /// Either or both stacks; null = don't publish there.
    wsn::NotificationProducer* wsn = nullptr;
    wse::NotificationManager* wse = nullptr;
    const common::Clock* clock = &common::RealClock::instance();
    /// poll() cadence; tick() ignores it.
    common::TimeMs interval_ms = 1000;
    /// Optional retention: each tick also samples this store, so series
    /// history advances on the same cadence as published snapshots.
    TimeSeriesStore* series = nullptr;
    /// Optional judgment: each tick evaluates these objectives at the
    /// instant it sampled `series` and publishes their transitions as
    /// `gs:Telemetry/Alert` notifications on both stacks, with an EventLog
    /// entry per transition (Warn when firing, Info on recovery).
    SloTracker* slo = nullptr;
  };

  explicit MonitorProducer(Config config);

  /// One monitoring cycle: sample `series` → snapshot → delta → evaluate
  /// objectives → publish the snapshot, then each transition, on both
  /// stacks.
  void tick();

  /// tick() if `interval_ms` elapsed since the last cycle (per the
  /// injected clock); returns whether a cycle ran. Call from any
  /// convenient periodic context — there is no internal thread.
  bool poll();

  std::uint64_t snapshots_published() const;
  std::uint64_t alerts_fired() const;

 private:
  void publish(const std::string& topic, const xml::Element& payload,
               const std::string& action);

  Config config_;
  mutable std::mutex mu_;
  MetricsSnapshot last_;
  std::uint64_t seq_ = 0;
  std::uint64_t alerts_fired_ = 0;
  std::optional<common::TimeMs> last_cycle_;
};

class MonitorConsumer final : public net::Endpoint {
 public:
  /// Last known state of one producer, merged from every snapshot seen.
  struct ProducerState {
    std::string producer;
    std::uint64_t last_seq = 0;
    std::uint64_t snapshots = 0;
    std::uint64_t alerts = 0;
    std::uint64_t via_wsn = 0;  // messages that arrived Notify-wrapped
    std::uint64_t via_wse = 0;  // messages that arrived as raw wse events
    std::map<std::string, std::uint64_t> counter_totals;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, double> histogram_p99_us;
    std::string last_alert;  // most recent alert's rule, empty if none
    common::TimeMs last_ts_ms = 0;  // producer clock of the last snapshot
  };

  net::HttpResponse handle(const net::HttpRequest& request) override;

  /// Fleet-wide history: every received snapshot's metrics are also fed
  /// into `store` as `<producer>|<metric>` series — counters as rates over
  /// the inter-snapshot gap (the `ts_ms` attribute), gauges as levels,
  /// histograms as their per-tick p99. Call before traffic.
  void attach_series(TimeSeriesStore* store);

  std::vector<ProducerState> states() const;
  std::optional<ProducerState> state_for(const std::string& producer) const;
  std::uint64_t snapshot_count() const;
  std::uint64_t alert_count() const;
  /// Blocks until >= n snapshots arrived or timeout; immediate-tick tests
  /// use it with timeout 0 as a plain check.
  bool wait_for_snapshots(std::uint64_t n, int timeout_ms) const;

  /// Subscribes this consumer (reachable at `consumer_address`) to a wsn
  /// producer's `gs:Telemetry` subtree / a wse event source. Returns the
  /// subscription EPR (wsn) or manager EPR (wse) for lifetime control.
  soap::EndpointReference subscribe_wsn(net::SoapCaller& caller,
                                        const std::string& producer_address,
                                        const std::string& consumer_address);
  soap::EndpointReference subscribe_wse(net::SoapCaller& caller,
                                        const std::string& source_address,
                                        const std::string& consumer_address);

 private:
  void apply_snapshot(const xml::Element& snapshot, bool wrapped);
  void apply_alert(const xml::Element& alert, bool wrapped);

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::map<std::string, ProducerState> table_;
  std::uint64_t snapshots_seen_ = 0;
  std::uint64_t alerts_seen_ = 0;
  TimeSeriesStore* series_ = nullptr;
};

}  // namespace gs::telemetry
