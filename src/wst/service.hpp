// WS-Transfer: resources and resource factories (Create/Get/Put/Delete).
//
// Faithful to the paper's implementation choices:
//   * resources are XML documents in the Xindice-substitute database;
//   * Create names the resource with a server-assigned GUID by default,
//     "embedded into a returning EPR as a reference property" — but hooks
//     let a service choose its own naming (Grid-in-a-Box deliberately uses
//     client-legible ids like "<user DN>/<filename>", breaking EPR
//     opaqueness exactly as the paper describes);
//   * the spec does not require Create to be the only way resources come
//     to exist: Get/Put/Delete work on documents seeded out of band;
//   * semantics are best-effort — no lifetime management exists, and the
//     service may modify the representation the client sent;
//   * unlike WSRF, one service may serve MULTIPLE types of resource,
//     dispatching on the structure of the id (the paper's unified
//     ResourceAllocation service does precisely this).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "container/service.hpp"
#include "soap/namespaces.hpp"
#include "xmldb/database.hpp"

namespace gs::wst {

namespace actions {
const std::string kGet = std::string(soap::ns::kTransfer) + "/Get";
const std::string kPut = std::string(soap::ns::kTransfer) + "/Put";
const std::string kDelete = std::string(soap::ns::kTransfer) + "/Delete";
const std::string kCreate = std::string(soap::ns::kTransfer) + "/Create";
}  // namespace actions

/// The EPR reference property carrying the WS-Transfer resource id.
xml::QName transfer_id_qname();

class TransferService : public container::Service {
 public:
  /// Hook bundle for service-specific semantics. Every hook is optional;
  /// the defaults implement the plain store-what-you-got behaviour of the
  /// paper's counter service.
  struct Hooks {
    /// Names the resource and may transform the representation.
    /// Returns (id, representation-to-store). Default: GUID id, unchanged
    /// representation.
    std::function<std::pair<std::string, std::unique_ptr<xml::Element>>(
        const xml::Element& representation, container::RequestContext& ctx)>
        on_create;
    /// Produces the representation for Get. Default: database fetch by id.
    /// Returning nullptr faults with "unknown resource".
    std::function<std::unique_ptr<xml::Element>(const std::string& id,
                                                container::RequestContext& ctx)>
        on_get;
    /// Applies Put. Default: wholesale replacement of the stored document.
    /// May return a modified representation to echo to the client.
    std::function<std::unique_ptr<xml::Element>(
        const std::string& id, const xml::Element& replacement,
        container::RequestContext& ctx)>
        on_put;
    /// Applies Delete; returns false for unknown resources. Default:
    /// remove the stored document.
    std::function<bool(const std::string& id, container::RequestContext& ctx)>
        on_delete;
  };

  TransferService(std::string name, xmldb::XmlDatabase& db,
                  std::string collection, std::string address,
                  Hooks hooks = Hooks());

  xmldb::XmlDatabase& db() noexcept { return db_; }
  const std::string& collection() const noexcept { return collection_; }
  const std::string& address() const noexcept { return address_; }

  /// EPR for a resource id at this service.
  soap::EndpointReference epr_for(const std::string& id) const;
  /// The id addressed by a request; throws a Sender fault when missing.
  static std::string id_from(const container::RequestContext& ctx);

 private:
  xmldb::XmlDatabase& db_;
  std::string collection_;
  std::string address_;
  Hooks hooks_;
};

}  // namespace gs::wst
