// Arena-backed pull parser producing a read-only document view.
//
// This is the project's only XML grammar. A DOM built directly allocates one
// heap node plus several strings per element; on the wire hot path that is
// most of container.parse_us. The pull parser here scans the input once and
// builds a tree of trivially-destructible ArenaNodes whose names, attribute
// values and text are string_views into the input (entity-decoded runs are
// the only copies, placed in the arena). ArenaDocument owns its input buffer
// and the resulting immutable view; handlers that need to mutate convert the
// relevant subtree to the classic DOM with to_dom(), which keeps
// namespace-prefix hints so a materialized tree serializes like the input.
// xml::parse_element (parser.hpp) is the same parse followed by to_dom().
//
// Limits and diagnostics: 256-level depth limit, DTDs rejected, ParseError
// with a 1-based line/column on malformed input (pinned by tests/xml_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "xml/arena.hpp"
#include "xml/node.hpp"
#include "xml/parser.hpp"

namespace gs::xml {

struct ArenaAttr {
  std::string_view ns;
  std::string_view local;
  std::string_view value;
};

struct ArenaNsDecl {
  std::string_view prefix;
  std::string_view uri;
};

/// One node of the read-only view tree. Element fields are meaningful only
/// when kind == kElement; `text` only for character-data kinds.
struct ArenaNode {
  NodeKind kind = NodeKind::kElement;

  std::string_view ns;
  std::string_view local;
  ArenaAttr* attrs = nullptr;
  std::uint32_t nattrs = 0;
  ArenaNsDecl* decls = nullptr;
  std::uint32_t ndecls = 0;
  ArenaNode* first_child = nullptr;
  ArenaNode* next = nullptr;  // next sibling

  std::string_view text_data;  // for kText / kComment / kCData

  // --- element-only read helpers, mirroring Element's accessors -------------

  /// First child element with the given (ns, local), or nullptr.
  const ArenaNode* child(std::string_view ns_uri, std::string_view local_name) const;
  /// First child element with the given local name (any namespace).
  const ArenaNode* child_local(std::string_view local_name) const;
  /// First child element of any name, or nullptr.
  const ArenaNode* first_element() const;
  /// Attribute value by (ns, local) / by local name in no-or-any namespace,
  /// mirroring Element::attr's matching rules.
  std::optional<std::string_view> attr(std::string_view ns_uri,
                                       std::string_view local_name) const;
  std::optional<std::string_view> attr_local(std::string_view local_name) const;
  /// Concatenated direct text/CDATA content (like Element::text()).
  std::string text() const;
  /// Clark notation for diagnostics: "{uri}local" or "local".
  std::string clark() const;
};

/// An immutable parsed document: owns the input buffer and the arena the
/// node tree lives in. Movable, not copyable; share via shared_ptr when a
/// view must outlive its producer (soap::Envelope does this).
class ArenaDocument {
 public:
  /// Parses `input`, taking ownership of the buffer. Throws ParseError on
  /// malformed input.
  static ArenaDocument parse(std::string input);

  ArenaDocument(ArenaDocument&&) noexcept = default;
  ArenaDocument& operator=(ArenaDocument&&) noexcept = default;

  const ArenaNode& root() const noexcept { return *root_; }
  const std::string& buffer() const noexcept { return *buffer_; }

  /// Elements + character-data nodes in the tree.
  std::size_t node_count() const noexcept { return nodes_; }
  std::size_t arena_bytes() const noexcept { return arena_.bytes_used(); }

  /// Materializes a subtree as the mutable DOM (names, attributes in order,
  /// prefix hints).
  static std::unique_ptr<Element> to_dom(const ArenaNode& el);
  std::unique_ptr<Element> to_dom() const { return to_dom(*root_); }

 private:
  ArenaDocument() = default;

  // Heap indirection keeps the octets at a stable address across moves; a
  // short buffer held by value would relocate with the small-string
  // optimization and dangle every view in the tree.
  std::unique_ptr<const std::string> buffer_;
  Arena arena_;
  ArenaNode* root_ = nullptr;
  std::size_t nodes_ = 0;
};

/// Canonical octet stream for an arena subtree; byte-identical to
/// canonicalize(*ArenaDocument::to_dom(el)) without materializing the DOM.
std::string canonicalize_view(const ArenaNode& el);

}  // namespace gs::xml
