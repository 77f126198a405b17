#include "wst/service.hpp"

#include "common/uuid.hpp"

namespace gs::wst {

namespace {
constexpr const char* kWstImplNs = "http://gridstacks.dev/wst";
xml::QName wst(const char* local) { return {soap::ns::kTransfer, local}; }
}  // namespace

xml::QName transfer_id_qname() { return {kWstImplNs, "ResourceID"}; }

soap::EndpointReference TransferService::epr_for(const std::string& id) const {
  soap::EndpointReference epr(address_);
  epr.add_reference_property(transfer_id_qname(), id);
  return epr;
}

std::string TransferService::id_from(const container::RequestContext& ctx) {
  std::optional<std::string> id = ctx.info.reference_header(transfer_id_qname());
  if (!id) {
    throw soap::SoapFault("Sender", "request carries no resource id header");
  }
  return *id;
}

TransferService::TransferService(std::string name, xmldb::XmlDatabase& db,
                                 std::string collection, std::string address,
                                 Hooks hooks)
    : container::Service(std::move(name)),
      db_(db),
      collection_(std::move(collection)),
      address_(std::move(address)),
      hooks_(std::move(hooks)) {
  register_operation(actions::kCreate, [this](container::RequestContext& ctx) {
    const xml::Element& representation = ctx.payload();

    std::string id;
    std::unique_ptr<xml::Element> to_store;
    bool modified = false;
    if (hooks_.on_create) {
      auto [hook_id, hook_doc] = hooks_.on_create(representation, ctx);
      id = std::move(hook_id);
      modified = !xml::Element::deep_equal(representation, *hook_doc);
      to_store = std::move(hook_doc);
    } else {
      id = common::new_uuid();
      to_store = representation.clone_element();
    }
    db_.store(collection_, id, *to_store);

    soap::Envelope response =
        container::make_response(ctx, actions::kCreate + "Response");
    xml::Element& created = response.add_payload(wst("ResourceCreated"));
    created.append(epr_for(id).to_xml(wst("EndpointReference")));
    // Per the paper: Create returns a new representation only when the
    // service modified the client's input.
    if (modified) {
      response.add_payload(wst("Representation")).append(to_store->clone());
    }
    return response;
  });

  register_operation(actions::kGet, [this](container::RequestContext& ctx) {
    std::string id = id_from(ctx);
    // Uncached: the stored octets cross from database to wire without a
    // parse, a DOM or a writer pass. Store serialized them with the writer,
    // so they are the bytes the parsed document would write. Cached
    // documents may lack the prefix hints the octets carry, and hooked Gets
    // compute their representation: both write the element.
    if (!hooks_.on_get && !db_.cache_enabled()) {
      auto octets = db_.load_octets(collection_, id);
      if (!octets) {
        throw soap::SoapFault("Sender", "unknown resource '" + id + "'");
      }
      soap::Envelope response =
          container::make_response(ctx, actions::kGet + "Response");
      response.add_payload_octets(std::move(octets));
      return response;
    }
    std::unique_ptr<xml::Element> representation =
        hooks_.on_get ? hooks_.on_get(id, ctx) : db_.load(collection_, id);
    if (!representation) {
      throw soap::SoapFault("Sender", "unknown resource '" + id + "'");
    }
    soap::Envelope response =
        container::make_response(ctx, actions::kGet + "Response");
    response.add_payload(std::move(representation));
    return response;
  });

  register_operation(actions::kPut, [this](container::RequestContext& ctx) {
    std::string id = id_from(ctx);
    const xml::Element& replacement = ctx.payload();

    std::unique_ptr<xml::Element> echoed;
    if (hooks_.on_put) {
      echoed = hooks_.on_put(id, replacement, ctx);
    } else {
      // Default Put: wholesale replacement. Faults when the resource is
      // unknown (replacing nothing is a client error here; services that
      // want upsert provide a hook).
      if (!db_.contains(collection_, id)) {
        throw soap::SoapFault("Sender", "unknown resource '" + id + "'");
      }
      db_.store(collection_, id, replacement);
    }
    soap::Envelope response =
        container::make_response(ctx, actions::kPut + "Response");
    if (echoed) {
      response.add_payload(wst("Representation")).append(std::move(echoed));
    } else {
      response.add_payload(wst("PutResponse"));
    }
    return response;
  });

  register_operation(actions::kDelete, [this](container::RequestContext& ctx) {
    std::string id = id_from(ctx);
    bool removed =
        hooks_.on_delete ? hooks_.on_delete(id, ctx) : db_.remove(collection_, id);
    if (!removed) {
      throw soap::SoapFault("Sender", "unknown resource '" + id + "'");
    }
    soap::Envelope response =
        container::make_response(ctx, actions::kDelete + "Response");
    response.add_payload(wst("DeleteResponse"));
    return response;
  });
}

}  // namespace gs::wst
