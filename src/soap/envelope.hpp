// SOAP 1.2 envelopes.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/buffer_chain.hpp"
#include "soap/addressing.hpp"
#include "xml/node.hpp"
#include "xml/pull.hpp"

namespace gs::soap {

/// A SOAP fault (SOAP 1.2 shape: Code/Value, Reason/Text, Detail).
struct Fault {
  std::string code = "Receiver";  // SOAP fault code local name
  std::string reason;
  std::string detail;       // serialized detail payload (may be empty)
  std::string subcode;      // spec-defined subcode (e.g. WS-BaseFaults type)
};

/// Thrown by client proxies when a call returns a fault, and by service code
/// to produce one.
class SoapFault : public std::runtime_error {
 public:
  explicit SoapFault(Fault fault)
      : std::runtime_error(fault.reason), fault_(std::move(fault)) {}
  SoapFault(std::string code, std::string reason)
      : SoapFault(Fault{std::move(code), std::move(reason), "", ""}) {}

  const Fault& fault() const noexcept { return fault_; }

 private:
  Fault fault_;
};

/// A SOAP envelope: Header + Body, with WS-Addressing accessors.
///
/// The envelope is what actually crosses the simulated wire (serialized
/// with `to_xml`, re-parsed with `from_xml`), so every request/response in
/// both stacks pays real serialization costs.
///
/// An envelope is in one of two states:
///  - parts: the WS-Addressing text headers as strings, the other header
///    elements and the payload in lists, in document order. An envelope
///    built in-process starts here; reads answer from the parts, and
///    writing is one writer pass inside a fixed Envelope/Header/Body frame.
///  - view: an immutable xml::ArenaDocument of the exact received octets
///    (what from_xml returns). Reads answer from the view, materializing at
///    most the subtree they return, and an unmutated envelope forwards its
///    buffer. The first mutation thaws the view into parts: the Header's and
///    the Body's child elements, in order (the frame and the whitespace
///    between elements are normalized).
///
/// Pointers returned by accessors stay valid for the envelope's lifetime
/// (subtrees handed out before a state transition are kept alive), but
/// reflect the state at the time of the call — don't hold them across a
/// mutation. Lazy materialization is not synchronized: one envelope must
/// not be accessed from two threads at once.
class Envelope {
 public:
  /// An empty envelope: an empty Header and Body.
  Envelope() = default;
  Envelope(Envelope&&) noexcept = default;
  Envelope& operator=(Envelope&&) noexcept = default;
  Envelope(const Envelope& other) { *this = other; }
  Envelope& operator=(const Envelope& other);

  /// First child element of the Body (the operation payload), or nullptr.
  /// The const overload answers from the parts (parsing stored octets once)
  /// or materializes only the payload subtree of a view; the mutable one
  /// thaws a view into parts.
  const xml::Element* payload() const;
  xml::Element* payload();
  /// The payload as a read-only view of the envelope's octets, or nullptr
  /// when the Body is empty: no DOM is built. A received envelope answers
  /// from its wire view; one in parts is serialized and parsed once (it is
  /// a view from then on). The view lives until the envelope is mutated or
  /// destroyed.
  const xml::ArenaNode* payload_view() const;
  /// Appends a payload element to the Body and returns it.
  xml::Element& add_payload(xml::QName name);
  void add_payload(std::unique_ptr<xml::Element> el);
  /// Appends an application payload (never a fault) given as serialized
  /// octets, written verbatim. The caller guarantees they are what the
  /// writer would produce at that position (e.g. database octets, which
  /// round-trip through parse and write); reads parse them.
  void add_payload_octets(std::shared_ptr<const std::string> octets);

  // --- WS-Addressing ---------------------------------------------------------

  /// Appends To/Action/MessageID/RelatesTo/ReplyTo headers plus the raw
  /// reference headers from `info` (moved in when the caller is done with
  /// it) after any headers already present.
  void write_addressing(MessageInfo info);
  /// Reads the addressing headers back out (inverse of write_addressing):
  /// each header is its first occurrence. From a received envelope the
  /// reference headers stay in its wire view (see
  /// MessageInfo::reference_header).
  MessageInfo read_addressing() const;

  /// First header child with this QName, or nullptr; from the wire view
  /// this materializes (and caches) only that header's subtree.
  const xml::Element* header_child(const xml::QName& name) const;
  /// Attribute of the first header child with this QName, matched by local
  /// name — no DOM nodes in either state.
  std::optional<std::string> header_child_attr(const xml::QName& name,
                                               std::string_view attr) const;
  /// Removes the first header child with `el`'s QName, if any, and appends
  /// `el` as the last header.
  void replace_header(std::unique_ptr<xml::Element> el);

  // --- Faults -----------------------------------------------------------------

  bool is_fault() const;
  /// Parses the Body fault; throws std::runtime_error when not a fault.
  Fault fault() const;
  /// An envelope whose Body is the given fault.
  static Envelope make_fault(const Fault& f);
  /// Throws SoapFault when this envelope is a fault (client-side check).
  void throw_if_fault() const;

  // --- Wire form ---------------------------------------------------------------

  std::string to_xml() const;
  static Envelope from_xml(std::string_view wire);

  /// Appends this envelope's wire octets to `chain` without intermediate
  /// concatenation: wire-backed envelopes share the received buffer, the
  /// others serialize once (into `scratch` when provided, so a
  /// caller-managed buffer's capacity is reused; `scratch` is reallocated if
  /// still referenced by a previous chain).
  void wire_chain(common::BufferChain& chain,
                  std::shared_ptr<std::string>* scratch = nullptr) const;

  /// Canonical bytes of the signed content — the Body plus the To/Action/
  /// MessageID/RelatesTo headers, in that order (see security/xmlsig.cpp) —
  /// computed from the wire form in both states (so a signature made from
  /// parts verifies against the received view) and memoized until the
  /// envelope is mutated.
  const std::string& canonical_signed_content() const;

 private:
  explicit Envelope(std::shared_ptr<const xml::ArenaDocument> view)
      : view_(std::move(view)) {}

  /// The parts, in document order.
  struct Parts {
    std::string to, action, message_id, relates_to;     // wsa text headers
    std::vector<std::unique_ptr<xml::Element>> headers;  // after those
    std::vector<std::unique_ptr<xml::Element>> payload;
    std::shared_ptr<const std::string> payload_octets;  // after `payload`

    bool has_header() const {
      return !to.empty() || !action.empty() || !message_id.empty() ||
             !relates_to.empty() || !headers.empty();
    }
    /// The text header this QName names, when it holds a value (the parts
    /// are mutable inside the const Envelope, so readers call this too).
    std::string* text_header(const xml::QName& name);
    /// First element of `headers` with this QName, or nullptr.
    const xml::Element* header(const xml::QName& name) const;
  };

  /// The parts for a mutation: thaws a view into them, and drops every
  /// cache derived from the envelope before it.
  Parts& mut();
  /// mut(), with stored payload octets parsed into the payload list, so an
  /// edit of the Body keeps its order.
  Parts& mut_payload();
  /// Replaces `out` with the octets the parts write.
  void write_into(std::string& out) const;
  const xml::ArenaNode* view_header() const;
  const xml::ArenaNode* view_body() const;

  // The view, when set, is the source of truth; otherwise the parts are.
  mutable Parts parts_;
  mutable std::shared_ptr<const xml::ArenaDocument> view_;

  // Subtrees built for reads: the payload (a view's, or parsed octets) and
  // headers (a view's, or text headers as elements).
  mutable std::unique_ptr<xml::Element> payload_dom_;
  mutable std::vector<std::unique_ptr<xml::Element>> header_cache_;
  mutable std::unique_ptr<std::string> signed_cache_;
  // Subtrees handed out before a state transition; kept alive so earlier
  // pointers don't dangle.
  mutable std::vector<std::unique_ptr<xml::Element>> retired_;
};

}  // namespace gs::soap
