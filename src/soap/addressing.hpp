// WS-Addressing: endpoint references and message-addressing headers.
//
// Both stacks lean on WS-Addressing. WSRF's WS-Resource Access Pattern puts
// the resource identity in EPR ReferenceProperties; the paper's WS-Transfer
// implementation does the same with its GUID resource ids (and, in
// Grid-in-a-Box, deliberately *non-opaque* ids like "DN/filename").
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "xml/node.hpp"
#include "xml/pull.hpp"
#include "xml/qname.hpp"

namespace gs::soap {

/// A WS-Addressing EndpointReference: an address URI plus reference
/// properties (arbitrary XML elements echoed as SOAP headers on every
/// message to the endpoint).
class EndpointReference {
 public:
  EndpointReference() = default;
  explicit EndpointReference(std::string address) : address_(std::move(address)) {}

  EndpointReference(const EndpointReference& other) { *this = other; }
  EndpointReference& operator=(const EndpointReference& other);
  EndpointReference(EndpointReference&&) noexcept = default;
  EndpointReference& operator=(EndpointReference&&) noexcept = default;

  const std::string& address() const noexcept { return address_; }
  void set_address(std::string a) { address_ = std::move(a); }
  bool empty() const noexcept { return address_.empty(); }

  /// Adds a reference property element (ownership transferred).
  void add_reference_property(std::unique_ptr<xml::Element> prop);
  /// Convenience: adds `<name>value</name>`.
  void add_reference_property(xml::QName name, std::string value);

  const std::vector<std::unique_ptr<xml::Element>>& reference_properties() const {
    return props_;
  }
  /// Text of the first reference property with this name, or nullopt.
  std::optional<std::string> reference_property(const xml::QName& name) const;

  /// Serializes as `<wrapper>` in WS-Addressing form
  /// (Address + ReferenceProperties).
  std::unique_ptr<xml::Element> to_xml(const xml::QName& wrapper) const;
  /// Parses an EPR from WS-Addressing form. Throws std::runtime_error when
  /// the Address element is missing.
  static EndpointReference from_xml(const xml::Element& el);

  friend bool operator==(const EndpointReference& a, const EndpointReference& b);

 private:
  std::string address_;
  std::vector<std::unique_ptr<xml::Element>> props_;
};

/// The per-message addressing headers.
struct MessageInfo {
  std::string to;          // wsa:To — destination address
  std::string action;      // wsa:Action — operation URI
  std::string message_id;  // wsa:MessageID
  std::string relates_to;  // wsa:RelatesTo — request MessageID on replies
  EndpointReference reply_to;  // wsa:ReplyTo — async reply sink
  /// Reference properties of the target EPR, echoed as raw headers
  /// (this is how a WS-Resource / WS-Transfer resource is identified).
  /// Holds the headers to send, and those read from an envelope built
  /// in-process.
  std::vector<std::unique_ptr<xml::Element>> reference_headers;
  /// A received envelope's Header element, read in place: its reference
  /// headers stay in the wire view (no DOM), which `received` keeps alive.
  const xml::ArenaNode* received_header = nullptr;
  std::shared_ptr<const void> received;

  MessageInfo() = default;
  MessageInfo(const MessageInfo& other) { *this = other; }
  MessageInfo& operator=(const MessageInfo& other);
  MessageInfo(MessageInfo&&) noexcept = default;
  MessageInfo& operator=(MessageInfo&&) noexcept = default;

  /// Copies `epr`'s address into `to` and clones its reference properties
  /// into `reference_headers` — addressing a message *to a resource*.
  void target(const EndpointReference& epr);

  /// Text of the first reference header with this name, or nullopt;
  /// answers from `reference_headers`, then from the received view.
  std::optional<std::string> reference_header(const xml::QName& name) const;
};

}  // namespace gs::soap
