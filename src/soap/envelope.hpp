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
/// Internally an envelope is in one of two states:
///  - built in-process: until the first DOM access it keeps its parts —
///    the WS-Addressing text headers as strings, the other header elements
///    and the payload in lists — and serializes them with one writer pass
///    inside a fixed Envelope/Header/Body frame. A DOM access (`root()`,
///    `header()`, `body()`, signing) materializes the classic xml::Element
///    tree, which from then on is the source of truth.
///  - wire-backed: owns an immutable xml::ArenaDocument view of the exact
///    received octets (what from_xml returns). Read accessors answer from the
///    view, materializing at most the subtree they return; the first
///    *mutating* access converts the whole view to a DOM.
/// Both serialize byte-identically to `xml::write` of the materialized tree.
///
/// Pointers returned by accessors stay valid for the envelope's lifetime
/// (materializing moves elements into the tree, and retired subtrees are
/// kept alive across state transitions), but reflect the state at the time
/// of the call — don't hold them across a mutation. Lazy materialization is
/// not synchronized: like the rest of the tree API, one envelope must not be
/// accessed from two threads at once.
class Envelope {
 public:
  /// An empty envelope with Header and Body. The tree is built on first
  /// DOM access, so an envelope that is only assigned over costs nothing.
  Envelope() = default;
  Envelope(Envelope&&) noexcept = default;
  Envelope& operator=(Envelope&&) noexcept = default;
  Envelope(const Envelope& other) { *this = other; }
  Envelope& operator=(const Envelope& other);

  xml::Element& root() { return mut(); }
  const xml::Element& root() const { return dom(); }
  xml::Element& header();
  const xml::Element& header() const;
  xml::Element& body();
  const xml::Element& body() const;

  /// First child element of the Body (the operation payload), or nullptr.
  /// The const overload answers from the wire view when possible,
  /// materializing only the payload subtree.
  const xml::Element* payload() const;
  /// The payload as a read-only view of the envelope's octets, or nullptr
  /// when the Body is empty: no DOM is built. A received envelope answers
  /// from its wire view; one built in-process is serialized and parsed once
  /// (it is wire-backed from then on). The view lives until the envelope is
  /// mutated or destroyed.
  const xml::ArenaNode* payload_view() const;
  xml::Element* payload();
  /// Appends a payload element to the Body and returns it.
  xml::Element& add_payload(xml::QName name);
  void add_payload(std::unique_ptr<xml::Element> el);
  /// Appends an application payload (never a fault) given as serialized
  /// octets, written verbatim. The caller guarantees they are what the
  /// writer would produce at that position (e.g. database octets, which
  /// round-trip through parse and write); a DOM access parses them.
  void add_payload_octets(std::shared_ptr<const std::string> octets);

  // --- WS-Addressing ---------------------------------------------------------

  /// Writes To/Action/MessageID/RelatesTo/ReplyTo headers plus the raw
  /// reference headers from `info` (moved in when the caller is done with it).
  /// On a fresh envelope the four text headers stay strings until written.
  void write_addressing(MessageInfo info);
  /// Reads the addressing headers back out (inverse of write_addressing).
  /// From a received envelope the reference headers stay in its wire view
  /// (see MessageInfo::reference_header).
  MessageInfo read_addressing() const;

  /// First header child with this QName, or nullptr; from the wire view
  /// this materializes (and caches) only that header's subtree.
  const xml::Element* header_child(const xml::QName& name) const;
  /// Attribute of the first header child with this QName, matched by local
  /// name — a fully view-backed read (no DOM nodes on the fast path).
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
  /// computed straight from the wire view when available and memoized until
  /// the envelope is mutated.
  const std::string& canonical_signed_content() const;

 private:
  explicit Envelope(std::shared_ptr<const xml::ArenaDocument> view)
      : view_(std::move(view)) {}

  /// The parts of an envelope built in-process, in document order.
  struct Parts {
    std::string to, action, message_id, relates_to;     // wsa text headers
    std::vector<std::unique_ptr<xml::Element>> headers;  // after those
    std::vector<std::unique_ptr<xml::Element>> payload;
    std::shared_ptr<const std::string> payload_octets;  // after `payload`

    bool has_header() const {
      return !to.empty() || !action.empty() || !message_id.empty() ||
             !relates_to.empty() || !headers.empty();
    }
  };

  /// True while the parts are the source of truth (no DOM, no view).
  bool in_parts() const noexcept { return !root_ && !view_; }
  /// Moves the parts into a DOM tree: Envelope, Header (text headers, then
  /// the header list), Body (the payload).
  std::unique_ptr<xml::Element> build_dom() const;
  /// Replaces `out` with the octets of an envelope that has parts or a DOM:
  /// the parts with the direct writer, else xml::write of the tree.
  void write_into(std::string& out) const;

  /// Mutable DOM root: materializes if needed, drops the view backing and
  /// every derived cache (they describe the pre-mutation doc).
  xml::Element& mut();
  /// Read-only DOM root: materializes lazily; the view (if any) is kept as
  /// the still-valid wire form.
  const xml::Element& dom() const;
  const xml::ArenaNode* view_body() const;
  const xml::ArenaNode* view_header() const;

  // At most one of root_/view_ is the source of truth (neither: the parts
  // are); root_ is also set lazily (const reads) next to a live view_, in
  // which case both describe the same bytes.
  mutable Parts parts_;
  mutable std::unique_ptr<xml::Element> root_;
  mutable std::shared_ptr<const xml::ArenaDocument> view_;

  mutable std::unique_ptr<xml::Element> payload_dom_;  // lazy payload subtree
  mutable std::vector<std::unique_ptr<xml::Element>> header_cache_;
  mutable std::unique_ptr<std::string> signed_cache_;
  // Subtrees handed out before a state transition; kept alive so earlier
  // pointers don't dangle.
  mutable std::vector<std::unique_ptr<xml::Element>> retired_;
};

}  // namespace gs::soap
