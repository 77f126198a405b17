// Service model for the resource-aware container.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "security/xmlsig.hpp"
#include "soap/envelope.hpp"

namespace gs::container {

/// Everything a service operation sees about the current request.
struct RequestContext {
  const soap::Envelope* request = nullptr;
  soap::MessageInfo info;  // parsed WS-Addressing headers
  /// Authenticated sender, present when the container verified an X.509
  /// signature on the request.
  std::optional<security::VerifiedIdentity> identity;

  /// The request payload (first Body child); throws SoapFault("Sender")
  /// when the body is empty.
  const xml::Element& payload() const;
  /// The sender's DN; throws SoapFault when the message was not
  /// authenticated (services that require identity call this).
  const std::string& caller_dn() const;
};

/// A deployed web service: a set of operations keyed by wsa:Action.
///
/// Concrete services (the WSRF port types, WS-Transfer resources, the
/// Grid-in-a-Box services) register their operations in their constructor;
/// "importing a port type" in the WSRF.NET programming-model sense is
/// calling another component's `register_into(*this)`.
class Service {
 public:
  using Operation = std::function<soap::Envelope(RequestContext&)>;

  explicit Service(std::string name) : name_(std::move(name)) {}
  virtual ~Service() = default;

  const std::string& name() const noexcept { return name_; }

  /// Registers (or replaces) the handler for an action URI.
  void register_operation(std::string action, Operation op);
  bool supports(const std::string& action) const;
  std::vector<std::string> actions() const;

  /// Dispatches on ctx.info.action; returns a Sender fault for unknown
  /// actions. SoapFault thrown by handlers becomes a fault envelope.
  soap::Envelope dispatch(RequestContext& ctx);

 private:
  std::string name_;
  std::map<std::string, Operation> operations_;
};

/// Builds a response envelope for a request: RelatesTo = request MessageID.
soap::Envelope make_response(const RequestContext& ctx, const std::string& action);

}  // namespace gs::container
