#include "sched/client.hpp"

#include <cstdlib>

#include "soap/namespaces.hpp"
#include "sched/service.hpp"

namespace gs::sched {

namespace {

xml::QName s(const char* local) { return {soap::ns::kSched, local}; }

const std::string kGetResourceProperty =
    std::string(soap::ns::kWsrfRp) + "/GetResourceProperty";
const std::string kGetResourcePropertyDocument =
    std::string(soap::ns::kWsrfRp) + "/GetResourcePropertyDocument";
const std::string kTransferGet = std::string(soap::ns::kTransfer) + "/Get";
const std::string kTransferCreate =
    std::string(soap::ns::kTransfer) + "/Create";
const std::string kTransferDelete =
    std::string(soap::ns::kTransfer) + "/Delete";

std::string join_csv(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ",";
    out += item;
  }
  return out;
}

std::unique_ptr<xml::Element> job_spec_element(const JobSpec& spec) {
  auto el = std::make_unique<xml::Element>(s("Job"));
  el->declare_prefix("s", soap::ns::kSched);
  if (!spec.name.empty()) el->set_attr("name", spec.name);
  el->set_attr("account", spec.account);
  el->set_attr("partition", spec.partition);
  el->set_attr("command", spec.command);
  if (!spec.working_dir.empty()) el->set_attr("working_dir", spec.working_dir);
  el->set_attr("cpus", std::to_string(spec.cpus));
  el->set_attr("mem_mb", std::to_string(spec.mem_mb));
  if (spec.time_limit_ms > 0) {
    el->set_attr("time_limit_ms", std::to_string(spec.time_limit_ms));
  }
  if (spec.array_count > 1) {
    el->set_attr("array_count", std::to_string(spec.array_count));
  }
  if (spec.nice != 0) el->set_attr("nice", std::to_string(spec.nice));
  if (!spec.depends_on.empty()) {
    el->set_attr("depends_on", join_csv(spec.depends_on));
  }
  return el;
}

size_t attr_count(const xml::Element& el, const char* name) {
  auto raw = el.attr(name);
  return raw ? static_cast<size_t>(std::strtoull(raw->c_str(), nullptr, 10)) : 0;
}

std::unique_ptr<xml::Element> clone_payload(const soap::Envelope& env,
                                            const char* what) {
  const xml::Element* payload = env.payload();
  if (!payload) {
    throw std::runtime_error(std::string(what) + ": empty response body");
  }
  return payload->clone_element();
}

}  // namespace

std::vector<std::string> SchedClient::submit(const JobSpec& spec) {
  const soap::Envelope response = invoke(kTransferCreate, job_spec_element(spec));
  std::vector<std::string> ids;
  if (const xml::Element* payload = response.payload()) {
    for (const xml::Element* el : payload->children_named(s("JobId"))) {
      ids.push_back(el->text());
    }
  }
  return ids;
}

bool SchedClient::cancel(const std::string& id) {
  auto payload = std::make_unique<xml::Element>(s("JobId"));
  payload->set_text(id);
  const soap::Envelope response = invoke(kTransferDelete, std::move(payload));
  const xml::Element* el = response.payload();
  return el && el->attr("cancelled") == std::optional<std::string>("true");
}

std::unique_ptr<xml::Element> SchedClient::job(const std::string& id) {
  auto payload = std::make_unique<xml::Element>(s("JobId"));
  payload->set_text(id);
  return clone_payload(invoke(kTransferGet, std::move(payload)), "Get");
}

std::unique_ptr<xml::Element> SchedClient::document_wst() {
  return clone_payload(invoke(kTransferGet, std::make_unique<xml::Element>(s("Get"))),
                       "Get");
}

std::unique_ptr<xml::Element> SchedClient::document_wsrf() {
  const soap::Envelope response = invoke(
      kGetResourcePropertyDocument,
      std::make_unique<xml::Element>(s("GetResourcePropertyDocument")));
  const xml::Element* payload = response.payload();
  if (payload) {
    auto kids = payload->child_elements();
    if (!kids.empty()) return kids.front()->clone_element();
  }
  throw std::runtime_error("GetResourcePropertyDocument: empty response");
}

std::unique_ptr<xml::Element> SchedClient::property(const std::string& name) {
  auto payload = std::make_unique<xml::Element>(s("GetResourceProperty"));
  payload->set_text(name);
  return clone_payload(invoke(kGetResourceProperty, std::move(payload)),
                       "GetResourceProperty");
}

void SchedClient::register_node(const std::string& name,
                                const std::vector<std::string>& partitions,
                                unsigned cpus, std::uint64_t mem_mb) {
  auto payload = std::make_unique<xml::Element>(s("Node"));
  payload->declare_prefix("s", soap::ns::kSched);
  payload->set_attr("name", name);
  payload->set_attr("partitions", join_csv(partitions));
  payload->set_attr("cpus", std::to_string(cpus));
  payload->set_attr("mem_mb", std::to_string(mem_mb));
  invoke(SchedService::register_node_action(), std::move(payload));
}

bool SchedClient::heartbeat(const std::string& node) {
  auto payload = std::make_unique<xml::Element>(s("Heartbeat"));
  payload->set_attr("node", node);
  const soap::Envelope response =
      invoke(SchedService::heartbeat_action(), std::move(payload));
  const xml::Element* el = response.payload();
  return el && el->attr("known") == std::optional<std::string>("true");
}

void SchedClient::drain(const std::string& node) {
  auto payload = std::make_unique<xml::Element>(s("Drain"));
  payload->set_attr("node", node);
  invoke(SchedService::drain_action(), std::move(payload));
}

void SchedClient::resume(const std::string& node) {
  auto payload = std::make_unique<xml::Element>(s("Resume"));
  payload->set_attr("node", node);
  invoke(SchedService::resume_action(), std::move(payload));
}

SchedClient::PassCounts SchedClient::schedule_pass() {
  const soap::Envelope response =
      invoke(SchedService::schedule_pass_action(),
             std::make_unique<xml::Element>(s("SchedulePass")));
  PassCounts counts;
  if (const xml::Element* el = response.payload()) {
    counts.placed = attr_count(*el, "placed");
    counts.backfilled = attr_count(*el, "backfilled");
    counts.preempted = attr_count(*el, "preempted");
    counts.requeued = attr_count(*el, "requeued");
    counts.timed_out = attr_count(*el, "timed_out");
    counts.queue_depth = attr_count(*el, "queue_depth");
    counts.running = attr_count(*el, "running");
  }
  return counts;
}

void FleetSimulator::provision(size_t count,
                               const std::vector<std::string>& partitions,
                               unsigned cpus, std::uint64_t mem_mb,
                               const std::string& prefix) {
  for (size_t i = 0; i < count; ++i) {
    std::string name = prefix + std::to_string(names_.size());
    client_.register_node(name, partitions, cpus, mem_mb);
    names_.push_back(name);
    specs_[name] = {partitions, cpus, mem_mb};
  }
}

size_t FleetSimulator::tick() {
  size_t delivered = 0;
  for (const std::string& name : names_) {
    if (failed_.count(name)) continue;
    if (!client_.heartbeat(name)) {
      const Spec& spec = specs_.at(name);
      client_.register_node(name, spec.partitions, spec.cpus, spec.mem_mb);
    }
    ++delivered;
  }
  return delivered;
}

}  // namespace gs::sched
