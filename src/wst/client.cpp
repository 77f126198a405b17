#include "wst/client.hpp"

namespace gs::wst {

namespace {
xml::QName wst(const char* local) { return {soap::ns::kTransfer, local}; }
}  // namespace

TransferProxy::CreateResult TransferProxy::create(
    std::unique_ptr<xml::Element> representation) {
  const soap::Envelope response = invoke(actions::kCreate, std::move(representation));
  // The reply's Body holds ResourceCreated and, optionally, Representation:
  // read them off the wire view, materializing only what is returned.
  const xml::ArenaNode* created = nullptr;
  const xml::ArenaNode* returned = nullptr;
  for (const xml::ArenaNode* el = response.payload_view(); el; el = el->next) {
    if (el->kind != xml::NodeKind::kElement || el->ns != soap::ns::kTransfer) continue;
    if (el->local == "ResourceCreated") created = el;
    if (el->local == "Representation") returned = el;
  }
  if (!created) throw soap::SoapFault("Receiver", "malformed Create response");
  const xml::ArenaNode* epr_el = created->child(soap::ns::kTransfer, "EndpointReference");
  if (!epr_el) throw soap::SoapFault("Receiver", "Create response has no EPR");

  CreateResult result;
  result.resource =
      soap::EndpointReference::from_xml(*xml::ArenaDocument::to_dom(*epr_el));
  if (const xml::ArenaNode* doc = returned ? returned->first_element() : nullptr) {
    result.representation = xml::ArenaDocument::to_dom(*doc);
  }
  return result;
}

std::unique_ptr<xml::Element> TransferProxy::get() {
  const soap::Envelope response = get_response();
  return xml::ArenaDocument::to_dom(representation(response));
}

soap::Envelope TransferProxy::get_response() { return invoke(actions::kGet); }

const xml::ArenaNode& TransferProxy::representation(
    const soap::Envelope& response) {
  const xml::ArenaNode* payload = response.payload_view();
  if (!payload) throw soap::SoapFault("Receiver", "empty Get response");
  return *payload;
}

std::unique_ptr<xml::Element> TransferProxy::put(
    std::unique_ptr<xml::Element> replacement) {
  const soap::Envelope response = invoke(actions::kPut, std::move(replacement));
  const xml::Element* payload = response.payload();
  if (payload && payload->name() == wst("Representation")) {
    auto kids = payload->child_elements();
    if (!kids.empty()) return kids.front()->clone_element();
  }
  return nullptr;
}

void TransferProxy::remove() { invoke(actions::kDelete); }

}  // namespace gs::wst
