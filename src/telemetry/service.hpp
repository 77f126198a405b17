// Live telemetry exposed *the paper's way*: as WS-Resource state.
//
// One deployed TelemetryService serves the same snapshot document on both
// of the paper's stacks —
//   * WSRF:        GetResourceProperty / GetResourcePropertyDocument
//   * WS-Transfer: Get
// — so either stack's tooling can read the container's own metrics, the
// per-service monitoring JClarens exposed as first-class grid-service
// state. The telemetry resource is a singleton: no resource-id reference
// header is required (requests carrying one are served the same document).
#pragma once

#include <memory>
#include <string>

#include "container/service.hpp"
#include "telemetry/cost.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"

namespace gs::telemetry {

/// Builds the snapshot document:
///
///   <t:Telemetry xmlns:t="http://gridstacks.dev/telemetry">
///     <t:Counter name="net.http.requests">123</t:Counter>
///     <t:Gauge name="net.http.pool.queue_depth">0</t:Gauge>
///     <t:Histogram name="container.dispatch_us" count=".." sum_us=".."
///                  min_us=".." max_us=".." p50_us=".." p90_us=".."
///                  p99_us=".."/>
///     <t:Trace id="..">
///       <t:Span id=".." parent=".." name="http.receive" layer="net"
///               start_us=".." duration_us=".."/>
///     </t:Trace>
///     <t:Event ts_us=".." level="warn" component="net.retry" trace="..">
///       retry budget exhausted
///       <t:Attr name="address">http://node1/..</t:Attr>
///     </t:Event>
///     <t:Health uptime_us=".." events_warn=".." events_error=".."
///               events_dropped=".." shed_total=".." admitted="..">
///       <t:QueueDepth name="..">0</t:QueueDepth>
///       <t:Evictions name="wsn.subscribers_evicted">0</t:Evictions>
///       <t:Breaker open_routes=".." opened=".." fast_fails=".."
///                  closed=".." probes=".."/>
///       <t:LastError ts_us=".." component="..">message</t:LastError>
///     </t:Health>
///     <t:Series name="container.faults" resolution="raw" interval_ms="..">
///       <t:Point t_ms=".." value=".." min=".." max=".." samples=".."/>
///     </t:Series>
///     <t:Slo name="availability" firing="false" burn_short=".."
///            burn_long=".." error_ratio_short=".." error_ratio_long=".."/>
///     <t:Tenants>
///       <t:Tenant id="alice" requests=".." faults=".." wall_us=".."
///                 parse_us=".." serialize_us=".." xml_nodes=".."
///                 arena_bytes=".." bytes_in=".." bytes_out="..">
///         <t:Service path="/Counter" requests=".." wall_us=".."/>
///       </t:Tenant>
///     </t:Tenants>
///   </t:Telemetry>
///
/// Metric/trace names, event messages, and attr values are arbitrary text
/// (fault reasons, remote addresses); escaping happens in the XML writer on
/// serialization, including control characters. `events` may be null — the
/// Event and Health sections are then omitted; likewise `series`, `slo`,
/// and `costs` gate the Series, Slo, and Tenants sections.
std::unique_ptr<xml::Element> telemetry_document(
    const MetricsRegistry& registry, const TraceLog& log,
    const EventLog* events = nullptr, const TimeSeriesStore* series = nullptr,
    const SloTracker* slo = nullptr, const CostAggregator* costs = nullptr);

/// Microseconds, and series values, as the wire writes them ("%.1f").
std::string format_us(double us);

/// Appends one `<t:Histogram>` for `h` to `parent` (shared by the document
/// builder and the monitor's snapshots).
void append_histogram(xml::Element& parent, const std::string& name,
                      const HistogramSnapshot& h);

/// One `<t:Series>` element for `window` (helper shared by the document
/// builder and the windowed Series/<metric> query).
std::unique_ptr<xml::Element> series_element(
    const std::string& name, const TimeSeriesStore::Window& window);

class TelemetryService final : public container::Service {
 public:
  explicit TelemetryService(std::string address,
                            MetricsRegistry* registry = &MetricsRegistry::global(),
                            TraceLog* log = &TraceLog::global(),
                            EventLog* events = &EventLog::global(),
                            const TimeSeriesStore* series = nullptr,
                            const SloTracker* slo = nullptr,
                            const CostAggregator* costs = nullptr);

  const std::string& address() const noexcept { return address_; }

 private:
  std::unique_ptr<xml::Element> document() const {
    return telemetry_document(*registry_, *log_, events_, series_, slo_,
                              costs_);
  }
  /// Resolves the cursor/window query forms ("Series/<metric>[/<start_ms>]"
  /// and "Events/<seq>"); nullptr when `requested` is not one of them.
  std::unique_ptr<xml::Element> query_element(const std::string& requested) const;

  std::string address_;
  MetricsRegistry* registry_;
  TraceLog* log_;
  EventLog* events_;
  const TimeSeriesStore* series_;
  const SloTracker* slo_;
  const CostAggregator* costs_;
};

}  // namespace gs::telemetry
