// WS-Transfer client proxy.
//
// Deliberately untyped: "Since WS-Transfer deals in terms of raw XML, the
// arguments and return values for the WS-Transfer proxy methods are arrays
// of XML elements" (paper §4.1.3). The client must know the document
// schemas out of band — WS-Transfer's <xsd:any> gap — so this proxy can
// only hand back elements, never deserialize them.
#pragma once

#include <memory>

#include "container/proxy.hpp"
#include "wst/service.hpp"

namespace gs::wst {

class TransferProxy : public container::ProxyBase {
 public:
  using container::ProxyBase::ProxyBase;

  struct CreateResult {
    soap::EndpointReference resource;
    /// Present only when the service modified the submitted representation.
    std::unique_ptr<xml::Element> representation;
  };

  /// Create against the resource factory (the proxy's target EPR).
  CreateResult create(std::unique_ptr<xml::Element> representation);

  /// Get on the targeted resource EPR.
  std::unique_ptr<xml::Element> get();
  /// Get, returning the response; read the representation in place (no
  /// DOM) with representation().
  soap::Envelope get_response();
  /// The representation a Get response carries, as a view of its wire
  /// octets; throws SoapFault when the response has none.
  static const xml::ArenaNode& representation(const soap::Envelope& response);

  /// Put; returns the echoed representation when the service modified it.
  std::unique_ptr<xml::Element> put(std::unique_ptr<xml::Element> replacement);

  /// Delete ("remove": `delete` is reserved).
  void remove();
};

}  // namespace gs::wst
