#include "telemetry/service.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>

#include "soap/namespaces.hpp"
#include "telemetry/propagation.hpp"

namespace gs::telemetry {

namespace {

xml::QName t(const char* local) { return {kTelemetryNs, local}; }
xml::QName rp(const char* local) { return {soap::ns::kWsrfRp, local}; }

// Action URIs duplicated from the wsrf/wst service headers so this library
// depends only on gs_container (the strings are spec constants either way).
const std::string kGetResourceProperty =
    std::string(soap::ns::kWsrfRp) + "/GetResourceProperty";
const std::string kGetResourcePropertyDocument =
    std::string(soap::ns::kWsrfRp) + "/GetResourcePropertyDocument";
const std::string kTransferGet = std::string(soap::ns::kTransfer) + "/Get";

// `text` without surrounding whitespace.
std::string trimmed(const std::string& text) {
  std::size_t b = text.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return {};
  return text.substr(b, text.find_last_not_of(" \t\r\n") - b + 1);
}

std::string format_ratio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// Copies matching counter/gauge values onto `el` as attributes named by
/// the metric's suffix past `prefix` (absent metrics are skipped — the
/// rollup only reports subsystems that exist in this registry).
template <typename Map>
bool attrs_from_prefix(xml::Element& el, const Map& metrics,
                       const std::string& prefix) {
  bool any = false;
  for (const auto& [name, value] : metrics) {
    if (name.rfind(prefix, 0) != 0) continue;
    el.set_attr(name.substr(prefix.size()), std::to_string(value));
    any = true;
  }
  return any;
}

void set_cost_attrs(xml::Element& el, const CostAggregator::Costs& costs) {
  el.set_attr("requests", std::to_string(costs.requests));
  el.set_attr("faults", std::to_string(costs.faults));
  el.set_attr("wall_us", std::to_string(costs.wall_us));
  el.set_attr("parse_us", std::to_string(costs.parse_us));
  el.set_attr("serialize_us", std::to_string(costs.serialize_us));
  el.set_attr("xml_nodes", std::to_string(costs.xml_nodes));
  el.set_attr("arena_bytes", std::to_string(costs.arena_bytes));
  el.set_attr("bytes_in", std::to_string(costs.request_bytes));
  el.set_attr("bytes_out", std::to_string(costs.response_bytes));
}

// One <t:Event>; the Events/<seq> cursor leads with the event's seq.
void append_event(xml::Element& parent, const Event& event, bool with_seq) {
  xml::Element& el = parent.append_element(t("Event"));
  if (with_seq) el.set_attr("seq", std::to_string(event.seq));
  el.set_attr("ts_us", std::to_string(event.ts_us));
  el.set_attr("level", level_name(event.level));
  el.set_attr("component", event.component);
  if (event.trace_id != 0) {
    el.set_attr("trace", std::to_string(event.trace_id));
  }
  el.set_text(event.message);
  for (const auto& [key, value] : event.attrs) {
    xml::Element& attr_el = el.append_element(t("Attr"));
    attr_el.set_attr("name", key);
    attr_el.set_text(value);
  }
}

}  // namespace

std::string format_us(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", us);
  return buf;
}

void append_histogram(xml::Element& parent, const std::string& name,
                      const HistogramSnapshot& h) {
  xml::Element& el = parent.append_element(t("Histogram"));
  el.set_attr("name", name);
  el.set_attr("count", std::to_string(h.count));
  el.set_attr("sum_us", std::to_string(h.sum_us));
  el.set_attr("min_us", std::to_string(h.count == 0 ? 0 : h.min_us));
  el.set_attr("max_us", std::to_string(h.max_us));
  el.set_attr("p50_us", format_us(h.percentile(50)));
  el.set_attr("p90_us", format_us(h.percentile(90)));
  el.set_attr("p99_us", format_us(h.percentile(99)));
}

std::unique_ptr<xml::Element> series_element(
    const std::string& name, const TimeSeriesStore::Window& window) {
  auto el = std::make_unique<xml::Element>(t("Series"));
  el->set_attr("name", name);
  el->set_attr("resolution", resolution_name(window.resolution));
  el->set_attr("interval_ms", std::to_string(window.interval_ms));
  for (const SeriesPoint& p : window.points) {
    xml::Element& point = el->append_element(t("Point"));
    point.set_attr("t_ms", std::to_string(p.t_ms));
    point.set_attr("value", format_us(p.value));
    point.set_attr("min", format_us(p.min));
    point.set_attr("max", format_us(p.max));
    point.set_attr("samples", std::to_string(p.samples));
  }
  return el;
}

std::unique_ptr<xml::Element> telemetry_document(
    const MetricsRegistry& registry, const TraceLog& log,
    const EventLog* events, const TimeSeriesStore* series,
    const SloTracker* slo, const CostAggregator* costs) {
  auto root = std::make_unique<xml::Element>(t("Telemetry"));
  root->declare_prefix("t", kTelemetryNs);

  MetricsSnapshot snap = registry.snapshot();
  for (const auto& [name, value] : snap.counters) {
    xml::Element& el = root->append_element(t("Counter"));
    el.set_attr("name", name);
    el.set_text(std::to_string(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    xml::Element& el = root->append_element(t("Gauge"));
    el.set_attr("name", name);
    el.set_text(std::to_string(value));
  }
  for (const auto& [name, h] : snap.histograms) {
    append_histogram(*root, name, h);
  }

  // Spans grouped per trace, oldest trace first.
  std::map<std::uint64_t, std::vector<SpanRecord>> traces;
  for (SpanRecord& span : log.snapshot()) {
    traces[span.trace_id].push_back(std::move(span));
  }
  for (const auto& [trace_id, spans] : traces) {
    xml::Element& trace_el = root->append_element(t("Trace"));
    trace_el.set_attr("id", std::to_string(trace_id));
    for (const SpanRecord& span : spans) {
      xml::Element& span_el = trace_el.append_element(t("Span"));
      span_el.set_attr("id", std::to_string(span.span_id));
      span_el.set_attr("parent", std::to_string(span.parent_span_id));
      span_el.set_attr("name", span.name);
      span_el.set_attr("layer", span.layer);
      span_el.set_attr("start_us", std::to_string(span.start_us));
      span_el.set_attr("duration_us", std::to_string(span.duration_us));
    }
  }

  if (events) {
    for (const Event& event : events->snapshot()) {
      append_event(*root, event, false);
    }

    // Health: the at-a-glance summary a monitoring client reads first —
    // uptime, how loud the log has been, delivery queue depths and
    // evictions (pulled from the registry by naming convention), and the
    // last few error-level events verbatim.
    xml::Element& health = root->append_element(t("Health"));
    health.set_attr("uptime_us", std::to_string(steady_now_us() -
                                                events->start_us()));
    health.set_attr("events_warn", std::to_string(events->count(Level::kWarn)));
    health.set_attr("events_error",
                    std::to_string(events->count(Level::kError)));
    health.set_attr("events_dropped", std::to_string(events->dropped()));
    // Overload control (PR 8): admission totals at a glance — shed_total
    // climbing while admitted stalls is the "saturated container"
    // signature the paper-era evaluations kept hitting.
    if (auto it = snap.counters.find("container.admitted");
        it != snap.counters.end()) {
      health.set_attr("admitted", std::to_string(it->second));
    }
    if (auto it = snap.counters.find("container.shed_total");
        it != snap.counters.end()) {
      health.set_attr("shed_total", std::to_string(it->second));
    }
    for (const auto& [name, value] : snap.gauges) {
      if (name.find("queue_depth") == std::string::npos) continue;
      xml::Element& el = health.append_element(t("QueueDepth"));
      el.set_attr("name", name);
      el.set_text(std::to_string(value));
    }
    for (const auto& [name, value] : snap.counters) {
      if (name.find("evicted") == std::string::npos &&
          name.find("dead_letters") == std::string::npos) {
        continue;
      }
      xml::Element& el = health.append_element(t("Evictions"));
      el.set_attr("name", name);
      el.set_text(std::to_string(value));
    }
    // Circuit breaker rollup, present when the breakers write into this
    // registry.
    {
      auto breaker = std::make_unique<xml::Element>(t("Breaker"));
      bool any = attrs_from_prefix(*breaker, snap.gauges, "net.breaker_");
      any |= attrs_from_prefix(*breaker, snap.counters, "net.breaker_");
      if (any) health.append(std::move(breaker));
    }
    // Durable storage engine (PR 10): WAL commit/recovery counters, absent
    // when the deployment runs on a volatile backend. wal_corrupt_records
    // climbing is the signal a medium is rotting under the container.
    {
      auto wal = std::make_unique<xml::Element>(t("Wal"));
      bool any = attrs_from_prefix(*wal, snap.counters, "xmldb.wal_");
      any |= attrs_from_prefix(*wal, snap.gauges, "xmldb.wal_");
      if (any) health.append(std::move(wal));
    }
    for (const Event& event : events->recent(5, Level::kError)) {
      xml::Element& el = health.append_element(t("LastError"));
      el.set_attr("ts_us", std::to_string(event.ts_us));
      el.set_attr("component", event.component);
      el.set_text(event.message);
    }
  }

  if (series) {
    for (const std::string& name : series->series_names()) {
      root->append(series_element(name, series->query(name)));
    }
  }

  if (slo) {
    for (const SloStatus& s : slo->status()) {
      xml::Element& el = root->append_element(t("Slo"));
      el.set_attr("name", s.objective);
      el.set_attr("firing", s.firing ? "true" : "false");
      el.set_attr("burn_short", format_ratio(s.burn_short));
      el.set_attr("burn_long", format_ratio(s.burn_long));
      el.set_attr("error_ratio_short", format_ratio(s.error_ratio_short));
      el.set_attr("error_ratio_long", format_ratio(s.error_ratio_long));
    }
  }

  if (costs) {
    xml::Element& tenants = root->append_element(t("Tenants"));
    for (const CostAggregator::TenantCosts& row : costs->totals()) {
      xml::Element& tenant = tenants.append_element(t("Tenant"));
      tenant.set_attr("id", row.tenant);
      set_cost_attrs(tenant, row.total);
      for (const auto& [path, service_costs] : row.by_service) {
        xml::Element& svc = tenant.append_element(t("Service"));
        svc.set_attr("path", path);
        set_cost_attrs(svc, service_costs);
      }
    }
  }
  return root;
}

std::unique_ptr<xml::Element> TelemetryService::query_element(
    const std::string& requested) const {
  // "Series/<metric>[/<start_ms>]": the retained window of one series,
  // optionally clipped to points at or after start_ms.
  if (requested.rfind("Series/", 0) == 0 && series_) {
    std::string rest = requested.substr(7);
    common::TimeMs start_ms = 0;
    if (std::size_t slash = rest.rfind('/'); slash != std::string::npos) {
      const std::string tail = rest.substr(slash + 1);
      if (!tail.empty() &&
          tail.find_first_not_of("0123456789") == std::string::npos) {
        start_ms = std::strtoll(tail.c_str(), nullptr, 10);
        rest = rest.substr(0, slash);
      }
    }
    auto el = series_element(rest, series_->query(rest, start_ms));
    el->declare_prefix("t", kTelemetryNs);
    return el;
  }
  // "Events/<seq>": cursor pull — only events logged after seq.
  if (requested.rfind("Events/", 0) == 0 && events_) {
    const std::string tail = requested.substr(7);
    if (!tail.empty() &&
        tail.find_first_not_of("0123456789") == std::string::npos) {
      std::uint64_t seq = std::strtoull(tail.c_str(), nullptr, 10);
      auto el = std::make_unique<xml::Element>(t("Events"));
      el->declare_prefix("t", kTelemetryNs);
      el->set_attr("since", tail);
      el->set_attr("last_seq", std::to_string(events_->last_seq()));
      for (const Event& event : events_->events_since(seq)) {
        append_event(*el, event, true);
      }
      return el;
    }
  }
  return nullptr;
}

TelemetryService::TelemetryService(std::string address, MetricsRegistry* registry,
                                   TraceLog* log, EventLog* events,
                                   const TimeSeriesStore* series,
                                   const SloTracker* slo,
                                   const CostAggregator* costs)
    : container::Service("Telemetry"),
      address_(std::move(address)),
      registry_(registry),
      log_(log),
      events_(events),
      series_(series),
      slo_(slo),
      costs_(costs) {
  // WSRF: GetResourceProperty selects elements of the telemetry document,
  // either by metric name (`<prop>net.http.requests</prop>`), by element
  // kind ("Counters", "Gauges", "Histograms", "Traces", ...), or by the
  // cursor/window forms ("Series/<metric>[/<start_ms>]", "Events/<seq>").
  register_operation(kGetResourceProperty, [this](container::RequestContext& ctx) {
    std::string requested = trimmed(ctx.payload().text());
    if (requested.empty()) {
      throw soap::SoapFault("Sender", "empty telemetry property name");
    }

    soap::Envelope response =
        container::make_response(ctx, kGetResourceProperty + "Response");
    xml::Element& body = response.add_payload(rp("GetResourcePropertyResponse"));

    // Cursor/window forms answer without building the whole document.
    if (auto custom = query_element(requested)) {
      body.append(std::move(custom));
      return response;
    }

    static const std::map<std::string, std::string> kKinds = {
        {"Counters", "Counter"},
        {"Gauges", "Gauge"},
        {"Histograms", "Histogram"},
        {"Traces", "Trace"},
        {"Events", "Event"},
        {"Health", "Health"},
        {"Series", "Series"},
        {"Slos", "Slo"},
        {"Tenants", "Tenants"},
    };
    auto kind = kKinds.find(requested);

    auto doc = document();
    bool matched = false;
    for (const xml::Element* el : doc->child_elements()) {
      bool wanted = kind != kKinds.end()
                        ? el->name().local() == kind->second
                        : el->attr("name") == requested;
      if (wanted) {
        body.append(el->clone());
        matched = true;
      }
    }
    if (!matched && kind == kKinds.end()) {
      throw soap::SoapFault("Sender",
                            "unknown telemetry property '" + requested + "'");
    }
    return response;
  });

  // WSRF: the whole document at once.
  register_operation(
      kGetResourcePropertyDocument, [this](container::RequestContext& ctx) {
        soap::Envelope response = container::make_response(
            ctx, kGetResourcePropertyDocument + "Response");
        response.add_payload(rp("GetResourcePropertyDocumentResponse"))
            .append(document());
        return response;
      });

  // WS-Transfer: Get returns the representation — the same document. A
  // payload naming a cursor/window form ("Series/<metric>[/<start_ms>]",
  // "Events/<seq>") narrows the representation to that fragment, so both
  // stacks expose the same windowed queries.
  register_operation(kTransferGet, [this](container::RequestContext& ctx) {
    soap::Envelope response =
        container::make_response(ctx, kTransferGet + "Response");
    if (const xml::Element* p = ctx.request->payload()) {
      if (auto custom = query_element(trimmed(p->text()))) {
        response.add_payload(std::move(custom));
        return response;
      }
    }
    response.add_payload(document());
    return response;
  });
}

}  // namespace gs::telemetry
