#include "telemetry/monitor.hpp"

#include <cmath>
#include <type_traits>

#include "common/parse.hpp"
#include "soap/namespaces.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/propagation.hpp"
#include "telemetry/service.hpp"
#include "wse/client.hpp"
#include "wsn/client.hpp"

namespace gs::telemetry {

namespace {

xml::QName t(const char* local) { return {kTelemetryNs, local}; }
xml::QName wsnt(const char* local) { return {soap::ns::kWsnBase, local}; }

// Every <t:Alert>: one objective's transition, with rule = "slo:<name>",
// value = the short-window burn and threshold = the burn it was judged
// against (burn is already normalized to budget).
std::unique_ptr<xml::Element> alert_element(const std::string& producer,
                                            const SloAlert& transition) {
  auto alert = std::make_unique<xml::Element>(t("Alert"));
  alert->declare_prefix("t", kTelemetryNs);
  alert->set_attr("producer", producer);
  alert->set_attr("rule", "slo:" + transition.objective);
  alert->set_attr("metric", "slo." + transition.objective + ".burn");
  alert->set_attr("value", format_us(transition.burn_short));
  alert->set_attr("threshold", format_us(transition.burn_threshold));
  alert->set_attr("firing", transition.firing ? "true" : "false");
  alert->set_text(transition.detail);
  return alert;
}

// A number a remote producer sent: the whole text must parse, and a double
// must be finite. Absent or malformed is nullopt.
template <typename T>
std::optional<T> number(const std::optional<std::string>& raw) {
  if (!raw) return std::nullopt;
  std::optional<T> value = common::parse_number<T>(*raw);
  if constexpr (std::is_floating_point_v<T>) {
    if (value && !std::isfinite(*value)) return std::nullopt;
  }
  return value;
}

}  // namespace

std::string snapshot_action() {
  return std::string(kTelemetryNs) + "/Snapshot";
}

std::string alert_action() { return std::string(kTelemetryNs) + "/Alert"; }

wsn::TopicNamespace monitor_topics() {
  wsn::TopicNamespace topics;
  topics.add(kAlertTopic);  // intermediates register kTelemetryTopic too
  return topics;
}

MonitorProducer::MonitorProducer(Config config) : config_(std::move(config)) {
  if (!config_.registry) {
    throw std::invalid_argument("MonitorProducer needs a registry");
  }
}

void MonitorProducer::tick() {
  // Retention first: the objectives judge the series at the instant it
  // was sampled. sample() synchronizes internally and never takes mu_.
  std::optional<common::TimeMs> sampled;
  if (config_.series) sampled = config_.series->sample();

  std::unique_ptr<xml::Element> snapshot_el;
  common::TimeMs now;
  {
    std::lock_guard lock(mu_);
    MetricsSnapshot now_snap = config_.registry->snapshot();
    MetricsSnapshot d = delta(last_, now_snap);
    last_ = std::move(now_snap);
    ++seq_;
    now = config_.clock->now();
    last_cycle_ = now;

    snapshot_el = std::make_unique<xml::Element>(t("TelemetrySnapshot"));
    snapshot_el->declare_prefix("t", kTelemetryNs);
    snapshot_el->set_attr("producer", config_.producer_address);
    snapshot_el->set_attr("seq", std::to_string(seq_));
    snapshot_el->set_attr("ts_ms", std::to_string(now));
    for (const auto& [name, value] : d.counters) {
      xml::Element& el = snapshot_el->append_element(t("Counter"));
      el.set_attr("name", name);
      el.set_attr("total", std::to_string(last_.counters.at(name)));
      el.set_text(std::to_string(value));  // this tick's increments
    }
    for (const auto& [name, value] : d.gauges) {
      xml::Element& el = snapshot_el->append_element(t("Gauge"));
      el.set_attr("name", name);
      el.set_text(std::to_string(value));
    }
    for (const auto& [name, h] : d.histograms) {
      append_histogram(*snapshot_el, name, h);
    }
  }

  std::vector<SloAlert> transitions;
  if (config_.slo) {
    transitions = config_.slo->evaluate(sampled.value_or(now));
    std::lock_guard lock(mu_);
    alerts_fired_ += transitions.size();
  }

  // Publishing happens outside mu_: delivery may block on retries, and it
  // records into the very registry the next tick will snapshot.
  publish(kTelemetryTopic, *snapshot_el, snapshot_action());
  for (const SloAlert& transition : transitions) {
    auto alert = alert_element(config_.producer_address, transition);
    EventLog::global().emit(
        transition.firing ? Level::kWarn : Level::kInfo, "telemetry.monitor",
        transition.firing ? "alert fired" : "alert recovered",
        {{"producer", config_.producer_address},
         {"rule", *alert->attr("rule")},
         {"metric", *alert->attr("metric")},
         {"value", *alert->attr("value")}});
    publish(kAlertTopic, *alert, alert_action());
  }
}

bool MonitorProducer::poll() {
  {
    std::lock_guard lock(mu_);
    if (last_cycle_ &&
        config_.clock->now() - *last_cycle_ < config_.interval_ms) {
      return false;
    }
  }
  tick();
  return true;
}

std::uint64_t MonitorProducer::snapshots_published() const {
  std::lock_guard lock(mu_);
  return seq_;
}

std::uint64_t MonitorProducer::alerts_fired() const {
  std::lock_guard lock(mu_);
  return alerts_fired_;
}

void MonitorProducer::publish(const std::string& topic,
                              const xml::Element& payload,
                              const std::string& action) {
  if (config_.wsn) config_.wsn->notify(topic, payload);
  if (config_.wse) config_.wse->notify(topic, payload, action);
}

net::HttpResponse MonitorConsumer::handle(const net::HttpRequest& request) {
  soap::Envelope parsed;
  try {
    parsed = soap::Envelope::from_xml(request.body);
  } catch (const std::exception& e) {
    return net::HttpResponse::error(400, "Bad Request", e.what());
  }
  const soap::Envelope& env = parsed;  // read-only: builds only the payload

  const xml::Element* payload = env.payload();
  bool wrapped = false;
  if (payload && payload->name() == wsnt("Notify")) {
    // WS-Notification wrapped delivery: unwrap to the carried message.
    wrapped = true;
    payload = nullptr;
    if (const xml::Element* message =
            env.payload()->child(wsnt("NotificationMessage"))) {
      if (const xml::Element* body = message->child(wsnt("Message"))) {
        auto kids = body->child_elements();
        if (!kids.empty()) payload = kids.front();
      }
    }
  }

  if (payload && payload->name() == t("TelemetrySnapshot")) {
    apply_snapshot(*payload, wrapped);
  } else if (payload && payload->name() == t("Alert")) {
    apply_alert(*payload, wrapped);
  }
  // Everything else (SubscriptionEnd, unknown events) is acknowledged and
  // dropped — a monitor must not fault its producers.
  return net::HttpResponse::ok(soap::Envelope().to_xml());
}

void MonitorConsumer::attach_series(TimeSeriesStore* store) { series_ = store; }

void MonitorConsumer::apply_snapshot(const xml::Element& snapshot,
                                     bool wrapped) {
  std::string producer = snapshot.attr("producer").value_or("");
  auto seq = number<std::uint64_t>(snapshot.attr("seq"));
  auto ts_ms = number<common::TimeMs>(snapshot.attr("ts_ms"));
  if (!seq || !ts_ms) return;  // acknowledged by handle(), but dropped
  struct Ingest {
    std::string series;
    double value;
  };
  std::vector<Ingest> ingests;
  {
    std::lock_guard lock(mu_);
    ProducerState& state = table_[producer];
    state.producer = producer;
    state.last_seq = std::max(state.last_seq, *seq);
    ++state.snapshots;
    ++(wrapped ? state.via_wsn : state.via_wse);
    // Counter rates use the producer's own clock: snapshot text is this
    // tick's increments, ts_ms the tick instant, so delta / (ts_ms -
    // previous ts_ms) is exact even when delivery was delayed or retried.
    common::TimeMs elapsed_ms =
        state.last_ts_ms > 0 && *ts_ms > state.last_ts_ms
            ? *ts_ms - state.last_ts_ms
            : 0;
    // A malformed metric element is skipped; the rest still apply.
    for (const xml::Element* el : snapshot.child_elements()) {
      auto name = el->attr("name");
      if (!name) continue;
      if (el->name() == t("Counter")) {
        auto total = number<std::uint64_t>(el->attr("total"));
        auto delta = number<std::uint64_t>(el->text());
        if (!total || !delta) continue;
        state.counter_totals[*name] = *total;
        if (series_ && elapsed_ms > 0) {
          ingests.push_back({producer + '|' + *name,
                             static_cast<double>(*delta) * 1000.0 /
                                 static_cast<double>(elapsed_ms)});
        }
      } else if (el->name() == t("Gauge")) {
        auto level = number<std::int64_t>(el->text());
        if (!level) continue;
        state.gauges[*name] = *level;
        if (series_) {
          ingests.push_back({producer + '|' + *name,
                             static_cast<double>(*level)});
        }
      } else if (el->name() == t("Histogram")) {
        auto p99 = number<double>(el->attr("p99_us"));
        auto count = number<std::uint64_t>(el->attr("count"));
        if (!p99 || !count) continue;
        state.histogram_p99_us[*name] = *p99;
        if (series_ && *count > 0) {
          ingests.push_back({producer + '|' + *name + ".p99", *p99});
        }
      }
    }
    if (*ts_ms > 0) state.last_ts_ms = *ts_ms;
    ++snapshots_seen_;
  }
  // The store has its own lock; feed it outside mu_.
  for (const Ingest& ingest : ingests) {
    series_->ingest(ingest.series, *ts_ms, ingest.value);
  }
  cv_.notify_all();
}

void MonitorConsumer::apply_alert(const xml::Element& alert, bool wrapped) {
  std::string producer = alert.attr("producer").value_or("");
  {
    std::lock_guard lock(mu_);
    ProducerState& state = table_[producer];
    state.producer = producer;
    ++state.alerts;
    ++(wrapped ? state.via_wsn : state.via_wse);
    state.last_alert = alert.attr("rule").value_or("");
    ++alerts_seen_;
  }
  cv_.notify_all();
}

std::vector<MonitorConsumer::ProducerState> MonitorConsumer::states() const {
  std::lock_guard lock(mu_);
  std::vector<ProducerState> out;
  out.reserve(table_.size());
  for (const auto& [producer, state] : table_) out.push_back(state);
  return out;
}

std::optional<MonitorConsumer::ProducerState> MonitorConsumer::state_for(
    const std::string& producer) const {
  std::lock_guard lock(mu_);
  auto it = table_.find(producer);
  if (it == table_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t MonitorConsumer::snapshot_count() const {
  std::lock_guard lock(mu_);
  return snapshots_seen_;
}

std::uint64_t MonitorConsumer::alert_count() const {
  std::lock_guard lock(mu_);
  return alerts_seen_;
}

bool MonitorConsumer::wait_for_snapshots(std::uint64_t n,
                                         int timeout_ms) const {
  std::unique_lock lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return snapshots_seen_ >= n; });
}

soap::EndpointReference MonitorConsumer::subscribe_wsn(
    net::SoapCaller& caller, const std::string& producer_address,
    const std::string& consumer_address) {
  wsn::NotificationProducerProxy proxy(
      caller, soap::EndpointReference(producer_address));
  wsn::Filter filter;
  // Simple dialect: the root topic matches its whole subtree, so one
  // subscription carries both snapshots and alerts.
  filter.set_topic(wsn::TopicExpression::parse(
      wsn::TopicExpression::Dialect::kSimple, kTelemetryTopic));
  return proxy.subscribe(soap::EndpointReference(consumer_address), filter);
}

soap::EndpointReference MonitorConsumer::subscribe_wse(
    net::SoapCaller& caller, const std::string& source_address,
    const std::string& consumer_address) {
  wse::EventSourceProxy proxy(caller,
                              soap::EndpointReference(source_address));
  // No filter: the wse topic filter is an exact string match, which would
  // miss `gs:Telemetry/Alert` — a monitor wants everything anyway.
  auto handle =
      proxy.subscribe(soap::EndpointReference(consumer_address));
  return handle.manager;
}

}  // namespace gs::telemetry
