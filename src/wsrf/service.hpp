// WSRF service base: the WSRF.NET programming model.
//
// A WsrfService owns a ResourceHome (one resource type per service — the
// WSRF constraint the paper highlights) and a PropertySet. Spec port types
// are "imported" with one call each, mirroring the [WSRFPortType] attribute:
//
//   WsrfService svc("Counter", home, props, address);
//   svc.import_resource_properties();   // WS-ResourceProperties operations
//   svc.import_resource_lifetime();     // WS-ResourceLifetime operations
//
// WSRF deliberately does not define Create; `create_resource` is the
// library method (ServiceBase.Create() in WSRF.NET) that the service author
// chooses how — or whether — to expose on the wire.
#pragma once

#include <functional>
#include <string>

#include "container/service.hpp"
#include "soap/namespaces.hpp"
#include "wsrf/resource.hpp"

namespace gs::wsrf {

/// wsa:Action URIs for the imported port types.
namespace actions {
const std::string kGetResourceProperty =
    std::string(soap::ns::kWsrfRp) + "/GetResourceProperty";
const std::string kGetMultipleResourceProperties =
    std::string(soap::ns::kWsrfRp) + "/GetMultipleResourceProperties";
const std::string kGetResourcePropertyDocument =
    std::string(soap::ns::kWsrfRp) + "/GetResourcePropertyDocument";
const std::string kSetResourceProperties =
    std::string(soap::ns::kWsrfRp) + "/SetResourceProperties";
const std::string kQueryResourceProperties =
    std::string(soap::ns::kWsrfRp) + "/QueryResourceProperties";
const std::string kDestroy = std::string(soap::ns::kWsrfRl) + "/Destroy";
const std::string kSetTerminationTime =
    std::string(soap::ns::kWsrfRl) + "/SetTerminationTime";
/// Implementation-defined (WSRF.NET-style) extension: one XPath evaluated
/// against EVERY resource of the service — the "rich queries over the
/// state of multiple resources" the paper credits to the XML-database
/// backing model. Not an OASIS-defined operation.
const std::string kQueryResources = "http://gridstacks.dev/wsrf/QueryResources";
}  // namespace actions

/// The XPath dialect URI accepted by QueryResourceProperties.
inline constexpr const char* kXPathDialect =
    "http://www.w3.org/TR/1999/REC-xpath-19991116";

class WsrfService : public container::Service {
 public:
  /// `address` is the service URL resources of this service are addressed
  /// at (it goes into every EPR the service mints).
  WsrfService(std::string name, ResourceHome& home, PropertySet properties,
              std::string address);

  // --- port-type imports ------------------------------------------------------

  /// GetResourceProperty / GetMultipleResourceProperties /
  /// GetResourcePropertyDocument / SetResourceProperties.
  void import_resource_properties();
  /// QueryResourceProperties (XPath dialect).
  void import_query_resource_properties();
  /// The multi-resource query extension (see actions::kQueryResources):
  /// returns the EPR and matching state of every resource the expression
  /// selects. Queries run against the *state documents* (what the database
  /// stores), not the projected RP documents.
  void import_query_resources();
  /// Destroy / SetTerminationTime, plus the CurrentTime and
  /// TerminationTime computed properties.
  void import_resource_lifetime();

  // --- the Create() library method --------------------------------------------

  /// Places a new resource in the backing store and returns its EPR.
  soap::EndpointReference create_resource(
      std::unique_ptr<xml::Element> initial_state,
      common::TimeMs termination_time = container::LifetimeManager::kNever);

  // --- notification hook -------------------------------------------------------

  using ChangeListener =
      std::function<void(const std::string& resource_id, const xml::QName& prop,
                         const xml::Element& state)>;
  /// Invoked after SetResourceProperties commits a change, with the state
  /// document it committed (the WSN producer subscribes here to publish
  /// value-changed topics without reloading the resource).
  void on_property_changed(ChangeListener listener);

  // --- service-author helpers --------------------------------------------------

  ResourceHome& home() noexcept { return home_; }
  const PropertySet& properties() const noexcept { return properties_; }
  const std::string& address() const noexcept { return address_; }

  /// The resource id addressed by the request; throws ResourceUnknownFault
  /// when the reference header is absent or the resource does not exist.
  std::string resolve_resource(const container::RequestContext& ctx) const;

  void fire_property_changed(const std::string& id, const xml::QName& prop,
                             const xml::Element& state);

 private:
  ResourceHome& home_;
  PropertySet properties_;
  std::string address_;
  std::vector<ChangeListener> listeners_;
};

/// Reads the (ns, local) pair off a property-name element:
/// `<el ns="uri">Local</el>`; ns defaults to `default_ns`. The view overload
/// reads a received request in place.
xml::QName property_qname(const xml::Element& el, const std::string& default_ns);
xml::QName property_qname(const xml::ArenaNode& el, const std::string& default_ns);

}  // namespace gs::wsrf
