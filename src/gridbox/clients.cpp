#include "gridbox/clients.hpp"

#include "common/encoding.hpp"
#include "common/parse.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"

namespace gs::gridbox {

namespace {

/// Exit codes come back from a remote job document; a garbled one means a
/// broken or hostile execution service, which the client reports as "no
/// exit code yet" rather than throwing out of a status poll.
std::optional<int> parse_exit_code(const std::string& text) {
  auto code = common::parse_number<int>(text);
  if (!code) {
    telemetry::MetricsRegistry::global()
        .counter("gridbox.malformed_exit_codes")
        .add(1);
    telemetry::EventLog::global().emit(
        telemetry::Level::kWarn, "gridbox.client",
        "ignoring malformed job ExitCode", {{"exit_code", text}});
    return std::nullopt;
  }
  return code;
}

}  // namespace

soap::EndpointReference with_identity(soap::EndpointReference epr,
                                      const ClientIdentity& id) {
  epr.add_reference_property(on_behalf_of_qname(), id.dn);
  return epr;
}

namespace {

/// Minimal operation proxy shared by the concrete clients.
class OpProxy : public container::ProxyBase {
 public:
  using container::ProxyBase::ProxyBase;
  soap::Envelope run(const std::string& action,
                     std::unique_ptr<xml::Element> payload) {
    return invoke(action, std::move(payload));
  }
  soap::Envelope run(const std::string& action) { return invoke(action); }
};

soap::Envelope call_op(net::SoapCaller& caller, const ClientIdentity& id,
                       soap::EndpointReference target, const std::string& action,
                       std::unique_ptr<xml::Element> payload) {
  OpProxy proxy(caller, with_identity(std::move(target), id), id.security);
  return payload ? proxy.run(action, std::move(payload)) : proxy.run(action);
}

}  // namespace

// ---------------------------------------------------------------------------
// WSRF admin
// ---------------------------------------------------------------------------

WsrfAdminClient::WsrfAdminClient(net::SoapCaller& caller,
                                 const WsrfGridDeployment& grid,
                                 ClientIdentity identity)
    : caller_(caller),
      account_address_(grid.account_address()),
      allocation_address_(grid.allocation_address()),
      identity_(std::move(identity)) {}

void WsrfAdminClient::add_account(const std::string& dn,
                                  const std::vector<std::string>& privileges) {
  auto req = std::make_unique<xml::Element>(gb("AddAccount"));
  req->append_element(gb("DN")).set_text(dn);
  for (const auto& p : privileges) {
    req->append_element(gb("Privilege")).set_text(p);
  }
  call_op(caller_, identity_, soap::EndpointReference(account_address_),
          wsrf_actions::kAddAccount, std::move(req));
}

void WsrfAdminClient::remove_account(const std::string& dn) {
  auto req = std::make_unique<xml::Element>(gb("RemoveAccount"));
  req->append_element(gb("DN")).set_text(dn);
  call_op(caller_, identity_, soap::EndpointReference(account_address_),
          wsrf_actions::kRemoveAccount, std::move(req));
}

void WsrfAdminClient::register_site(const SiteInfo& site) {
  auto req = site.to_xml();
  req->set_name(gb("RegisterSite"));
  call_op(caller_, identity_, soap::EndpointReference(allocation_address_),
          wsrf_actions::kRegisterSite, std::move(req));
}

void WsrfAdminClient::unregister_site(const std::string& host) {
  auto req = std::make_unique<xml::Element>(gb("UnregisterSite"));
  req->append_element(gb("Host")).set_text(host);
  call_op(caller_, identity_, soap::EndpointReference(allocation_address_),
          wsrf_actions::kUnregisterSite, std::move(req));
}

// ---------------------------------------------------------------------------
// WSRF user
// ---------------------------------------------------------------------------

WsrfUserClient::WsrfUserClient(net::SoapCaller& caller,
                               const WsrfGridDeployment& grid,
                               ClientIdentity identity)
    : caller_(caller),
      allocation_address_(grid.allocation_address()),
      identity_(std::move(identity)) {}

std::vector<SiteInfo> WsrfUserClient::get_available_resources(
    const std::string& application) {
  auto req = std::make_unique<xml::Element>(gb("GetAvailableResources"));
  req->append_element(gb("Application")).set_text(application);
  const soap::Envelope r =
      call_op(caller_, identity_, soap::EndpointReference(allocation_address_),
              wsrf_actions::kGetAvailableResources, std::move(req));
  std::vector<SiteInfo> out;
  if (const xml::Element* p = r.payload()) {
    for (const xml::Element* site : p->children_named(gb("Site"))) {
      out.push_back(SiteInfo::from_xml(*site));
    }
  }
  return out;
}

soap::EndpointReference WsrfUserClient::make_reservation(const std::string& host) {
  // The reservation service lives beside the allocation service.
  std::string address = allocation_address_;
  address.replace(address.rfind("/ResourceAllocation"),
                  std::string::npos, "/Reservation");
  auto req = std::make_unique<xml::Element>(gb("CreateReservation"));
  req->append_element(gb("Host")).set_text(host);
  const soap::Envelope r = call_op(caller_, identity_, soap::EndpointReference(address),
                             wsrf_actions::kCreateReservation, std::move(req));
  const xml::Element* epr = r.payload();
  if (!epr) throw soap::SoapFault("Receiver", "no reservation EPR returned");
  return soap::EndpointReference::from_xml(*epr);
}

soap::EndpointReference WsrfUserClient::create_directory(
    const std::string& data_address) {
  const soap::Envelope r = call_op(caller_, identity_,
                             soap::EndpointReference(data_address),
                             wsrf_actions::kCreateDirectory, nullptr);
  const xml::Element* epr = r.payload();
  if (!epr) throw soap::SoapFault("Receiver", "no directory EPR returned");
  return soap::EndpointReference::from_xml(*epr);
}

void WsrfUserClient::upload(const soap::EndpointReference& directory,
                            const std::string& name, const std::string& content) {
  auto req = std::make_unique<xml::Element>(gb("Upload"));
  req->append_element(gb("FileName")).set_text(name);
  req->append_element(gb("Content"))
      .set_text(common::base64_encode(common::as_bytes(content)));
  call_op(caller_, identity_, directory, wsrf_actions::kUpload, std::move(req));
}

std::vector<std::string> WsrfUserClient::list_files(
    const soap::EndpointReference& directory) {
  wsrf::WsResourceProxy proxy(caller_, with_identity(directory, identity_),
                              identity_.security);
  std::vector<std::string> out;
  for (const auto& el : proxy.get_property(gb("Files"))) {
    out.push_back(el->text());
  }
  return out;
}

std::string WsrfUserClient::download(const soap::EndpointReference& directory,
                                     const std::string& name) {
  auto req = std::make_unique<xml::Element>(gb("Download"));
  req->append_element(gb("FileName")).set_text(name);
  const soap::Envelope r =
      call_op(caller_, identity_, directory, wsrf_actions::kDownload,
              std::move(req));
  const xml::Element* p = r.payload();
  const xml::Element* content = p ? p->child(gb("Content")) : nullptr;
  if (!content) throw soap::SoapFault("Receiver", "no Content in download");
  auto bytes = common::base64_decode(content->text());
  if (!bytes) throw soap::SoapFault("Receiver", "Content is not valid base64");
  return std::string(bytes->begin(), bytes->end());
}

void WsrfUserClient::delete_file(const soap::EndpointReference& directory,
                                 const std::string& name) {
  auto req = std::make_unique<xml::Element>(gb("DeleteFile"));
  req->append_element(gb("FileName")).set_text(name);
  call_op(caller_, identity_, directory, wsrf_actions::kDeleteFile,
          std::move(req));
}

soap::EndpointReference WsrfUserClient::start_job(
    const std::string& exec_address, const std::string& command,
    const soap::EndpointReference& reservation,
    const soap::EndpointReference& directory) {
  auto req = std::make_unique<xml::Element>(gb("StartJob"));
  req->append_element(gb("Command")).set_text(command);
  req->append(reservation.to_xml(gb("ReservationEPR")));
  if (!directory.empty()) req->append(directory.to_xml(gb("DirectoryEPR")));
  const soap::Envelope r =
      call_op(caller_, identity_, soap::EndpointReference(exec_address),
              wsrf_actions::kStartJob, std::move(req));
  const xml::Element* epr = r.payload();
  if (!epr) throw soap::SoapFault("Receiver", "no job EPR returned");
  return soap::EndpointReference::from_xml(*epr);
}

std::string WsrfUserClient::job_status(const soap::EndpointReference& job) {
  wsrf::WsResourceProxy proxy(caller_, with_identity(job, identity_),
                              identity_.security);
  return proxy.get_property_text(gb("Status"));
}

std::optional<int> WsrfUserClient::job_exit_code(
    const soap::EndpointReference& job) {
  wsrf::WsResourceProxy proxy(caller_, with_identity(job, identity_),
                              identity_.security);
  auto values = proxy.get_property(gb("ExitCode"));
  if (values.empty()) return std::nullopt;
  return parse_exit_code(values.front()->text());
}

wsn::SubscriptionProxy WsrfUserClient::subscribe_completion(
    const std::string& exec_address, const soap::EndpointReference& consumer) {
  wsn::NotificationProducerProxy producer(
      caller_,
      with_identity(soap::EndpointReference(exec_address), identity_),
      identity_.security);
  wsn::Filter filter;
  filter.set_topic(wsn::TopicExpression::parse(
      wsn::TopicExpression::Dialect::kConcrete, kJobCompletedTopic));
  soap::EndpointReference sub = producer.subscribe(consumer, filter);
  return wsn::SubscriptionProxy(caller_, with_identity(sub, identity_),
                                identity_.security);
}

void WsrfUserClient::destroy(const soap::EndpointReference& resource) {
  wsrf::WsResourceProxy proxy(caller_, with_identity(resource, identity_),
                              identity_.security);
  proxy.destroy();
}

// ---------------------------------------------------------------------------
// WST admin
// ---------------------------------------------------------------------------

WstAdminClient::WstAdminClient(net::SoapCaller& caller,
                               const WstGridDeployment& grid,
                               ClientIdentity identity)
    : caller_(caller),
      account_address_(grid.account_address()),
      allocation_address_(grid.allocation_address()),
      identity_(std::move(identity)) {}

void WstAdminClient::add_account(const std::string& dn,
                                 const std::vector<std::string>& privileges) {
  wst::TransferProxy proxy(
      caller_, with_identity(soap::EndpointReference(account_address_), identity_),
      identity_.security);
  auto doc = std::make_unique<xml::Element>(gb("Account"));
  doc->append_element(gb("DN")).set_text(dn);
  for (const auto& p : privileges) {
    doc->append_element(gb("Privilege")).set_text(p);
  }
  proxy.create(std::move(doc));
}

void WstAdminClient::remove_account(const std::string& dn) {
  soap::EndpointReference epr(account_address_);
  epr.add_reference_property(wst::transfer_id_qname(), dn);
  wst::TransferProxy proxy(caller_, with_identity(std::move(epr), identity_),
                           identity_.security);
  proxy.remove();
}

void WstAdminClient::register_site(const SiteInfo& site) {
  wst::TransferProxy proxy(
      caller_,
      with_identity(soap::EndpointReference(allocation_address_), identity_),
      identity_.security);
  proxy.create(site.to_xml());
}

void WstAdminClient::unregister_site(const std::string& host) {
  soap::EndpointReference epr(allocation_address_);
  epr.add_reference_property(wst::transfer_id_qname(), host);
  wst::TransferProxy proxy(caller_, with_identity(std::move(epr), identity_),
                           identity_.security);
  proxy.remove();
}

// ---------------------------------------------------------------------------
// WST user
// ---------------------------------------------------------------------------

WstUserClient::WstUserClient(net::SoapCaller& caller,
                             const WstGridDeployment& grid,
                             ClientIdentity identity)
    : caller_(caller),
      allocation_address_(grid.allocation_address()),
      identity_(std::move(identity)) {}

std::vector<SiteInfo> WstUserClient::get_available_resources(
    const std::string& application) {
  // Mode '1': the id is "1<application>" — client-constructed,
  // service-specific EPR content.
  soap::EndpointReference epr(allocation_address_);
  epr.add_reference_property(wst::transfer_id_qname(),
                             std::string(1, kModeAvailable) + application);
  wst::TransferProxy proxy(caller_, with_identity(std::move(epr), identity_),
                           identity_.security);
  std::unique_ptr<xml::Element> doc = proxy.get();
  std::vector<SiteInfo> out;
  for (const xml::Element* site : doc->children_named(gb("Site"))) {
    out.push_back(SiteInfo::from_xml(*site));
  }
  return out;
}

void WstUserClient::make_reservation(const std::string& host) {
  soap::EndpointReference epr(allocation_address_);
  epr.add_reference_property(wst::transfer_id_qname(),
                             std::string(1, kModeReserve) + host);
  wst::TransferProxy proxy(caller_, with_identity(std::move(epr), identity_),
                           identity_.security);
  proxy.put(std::make_unique<xml::Element>(gb("Reserve")));
}

void WstUserClient::unreserve(const std::string& host) {
  soap::EndpointReference epr(allocation_address_);
  epr.add_reference_property(wst::transfer_id_qname(),
                             std::string(1, kModeUnreserve) + host);
  wst::TransferProxy proxy(caller_, with_identity(std::move(epr), identity_),
                           identity_.security);
  proxy.put(std::make_unique<xml::Element>(gb("Unreserve")));
}

soap::EndpointReference WstUserClient::file_epr(const std::string& data_address,
                                                const std::string& id) const {
  soap::EndpointReference epr(data_address);
  epr.add_reference_property(wst::transfer_id_qname(), id);
  return epr;
}

soap::EndpointReference WstUserClient::upload(const std::string& data_address,
                                              const std::string& name,
                                              const std::string& content) {
  wst::TransferProxy proxy(
      caller_, with_identity(soap::EndpointReference(data_address), identity_),
      identity_.security);
  auto doc = std::make_unique<xml::Element>(gb("File"));
  doc->set_attr("name", name);
  doc->append_element(gb("Content"))
      .set_text(common::base64_encode(common::as_bytes(content)));
  return proxy.create(std::move(doc)).resource;
}

std::vector<std::string> WstUserClient::list_files(
    const std::string& data_address) {
  // Listing = Get on an id ending with "/".
  wst::TransferProxy proxy(
      caller_,
      with_identity(file_epr(data_address, identity_.dn + "/"), identity_),
      identity_.security);
  std::unique_ptr<xml::Element> listing = proxy.get();
  std::vector<std::string> out;
  for (const xml::Element* f : listing->children_named(gb("File"))) {
    out.push_back(f->attr("name").value_or(""));
  }
  return out;
}

std::string WstUserClient::download(const std::string& data_address,
                                    const std::string& name) {
  wst::TransferProxy proxy(
      caller_,
      with_identity(file_epr(data_address, identity_.dn + "/" + name), identity_),
      identity_.security);
  std::unique_ptr<xml::Element> doc = proxy.get();
  const xml::Element* content = doc->child(gb("Content"));
  if (!content) throw soap::SoapFault("Receiver", "no Content in file document");
  auto bytes = common::base64_decode(content->text());
  if (!bytes) throw soap::SoapFault("Receiver", "Content is not valid base64");
  return std::string(bytes->begin(), bytes->end());
}

void WstUserClient::delete_file(const std::string& data_address,
                                const std::string& name) {
  wst::TransferProxy proxy(
      caller_,
      with_identity(file_epr(data_address, identity_.dn + "/" + name), identity_),
      identity_.security);
  proxy.remove();
}

soap::EndpointReference WstUserClient::start_job(const std::string& exec_address,
                                                 const std::string& command) {
  wst::TransferProxy proxy(
      caller_, with_identity(soap::EndpointReference(exec_address), identity_),
      identity_.security);
  auto doc = std::make_unique<xml::Element>(gb("Job"));
  doc->append_element(gb("Command")).set_text(command);
  return proxy.create(std::move(doc)).resource;
}

std::string WstUserClient::job_status(const soap::EndpointReference& job) {
  wst::TransferProxy proxy(caller_, with_identity(job, identity_),
                           identity_.security);
  std::unique_ptr<xml::Element> doc = proxy.get();
  const xml::Element* status = doc->child(gb("Status"));
  return status ? status->text() : "unknown";
}

std::optional<int> WstUserClient::job_exit_code(
    const soap::EndpointReference& job) {
  wst::TransferProxy proxy(caller_, with_identity(job, identity_),
                           identity_.security);
  std::unique_ptr<xml::Element> doc = proxy.get();
  const xml::Element* code = doc->child(gb("ExitCode"));
  if (!code) return std::nullopt;
  return parse_exit_code(code->text());
}

wse::EventSourceProxy::SubscriptionHandle WstUserClient::subscribe_completion(
    const std::string& event_source_address,
    const soap::EndpointReference& notify_to) {
  wse::EventSourceProxy source(
      caller_,
      with_identity(soap::EndpointReference(event_source_address), identity_),
      identity_.security);
  return source.subscribe(notify_to, wse::FilterDialect::kTopic,
                          kJobCompletedTopic);
}

void WstUserClient::remove(const soap::EndpointReference& resource) {
  wst::TransferProxy proxy(caller_, with_identity(resource, identity_),
                           identity_.security);
  proxy.remove();
}

}  // namespace gs::gridbox
