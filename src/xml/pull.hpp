// Arena-backed pull parser producing a read-only document view.
//
// This is the project's only XML grammar. A DOM built directly allocates one
// heap node plus several strings per element; on the wire hot path that is
// most of container.parse_us. The pull parser here scans the input once and
// builds a tree of trivially-destructible ArenaNodes whose names, attribute
// values and text are string_views into the input (entity-decoded runs are
// the only copies, placed in the arena). ArenaDocument owns a copy of its
// input and the resulting immutable view, both in one allocation; handlers
// that need to mutate convert the relevant subtree to the classic DOM with
// to_dom(), which keeps namespace-prefix hints so a materialized tree
// serializes like the input. xml::parse_element (parser.hpp) is the same
// parse followed by to_dom().
//
// The scanner works a run at a time: text, attribute values, comments, CDATA
// and PIs are found with memchr-style searches, names with a constant
// character table, and per-element scratch (attributes, namespace
// declarations, the namespace scope) is reused across elements and parses
// on a thread. Nothing tracks lines while scanning; a ParseError counts them
// over the consumed prefix when it is thrown.
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

/// An immutable parsed document: a copy of the input octets and the node
/// tree, sharing one arena whose first block is sized from the input — one
/// heap allocation for a typical envelope. Movable, not copyable; share via
/// shared_ptr when a view must outlive its producer (soap::Envelope does
/// this).
class ArenaDocument {
 public:
  /// Copies `input` into the document and parses it. Throws ParseError on
  /// malformed input.
  static ArenaDocument parse(std::string_view input);

  ArenaDocument(ArenaDocument&&) noexcept = default;
  ArenaDocument& operator=(ArenaDocument&&) noexcept = default;

  const ArenaNode& root() const noexcept { return *root_; }
  /// The document's own copy of the parsed octets.
  std::string_view buffer() const noexcept { return buffer_; }

  /// Elements + character-data nodes in the tree.
  std::size_t node_count() const noexcept { return nodes_; }
  std::size_t arena_bytes() const noexcept { return arena_.bytes_used(); }

  /// Materializes a subtree as the mutable DOM (names, attributes in order,
  /// prefix hints).
  static std::unique_ptr<Element> to_dom(const ArenaNode& el);
  std::unique_ptr<Element> to_dom() const { return to_dom(*root_); }

 private:
  explicit ArenaDocument(std::size_t input_bytes);

  // The octets sit at the front of the arena's first block, so views into
  // them stay put when the document moves.
  Arena arena_;
  std::string_view buffer_;
  ArenaNode* root_ = nullptr;
  std::size_t nodes_ = 0;
};

/// Canonical octet stream for an arena subtree; byte-identical to
/// canonicalize(*ArenaDocument::to_dom(el)) without materializing the DOM.
std::string canonicalize_view(const ArenaNode& el);

}  // namespace gs::xml
