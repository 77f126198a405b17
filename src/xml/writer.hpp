// XML serialization.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "xml/node.hpp"

namespace gs::xml {

/// Serialization options.
struct WriteOptions {
  /// Indent nested elements with two spaces and newlines. Mixed content
  /// (elements with direct text) is never re-indented.
  bool pretty = false;
  /// Emit an `<?xml version="1.0" encoding="UTF-8"?>` declaration.
  bool declaration = false;
};

/// Serializes the subtree rooted at `root` to UTF-8 XML text.
///
/// Namespace prefixes come from each element's prefix hints where present;
/// otherwise prefixes `n1`, `n2`, ... are generated at the point of first
/// use. Output is well-formed and round-trips through `parse`.
std::string write(const Element& root, const WriteOptions& options = {});

/// Serializes into `out`, reusing its capacity (hot-path variant of write).
void write_into(std::string& out, const Element& root,
                const WriteOptions& options = {});

/// Escapes `&<>` (and `"` when `in_attribute`) for inclusion in XML text.
std::string escape_text(std::string_view raw, bool in_attribute = false);
/// As escape_text, appending to `out` (verbatim runs are copied whole).
void escape_into(std::string& out, std::string_view raw, bool in_attribute = false);

// --- response-template support ----------------------------------------------
//
// Pre-compiled response templates (soap/template.cpp) serialize a prototype
// envelope once and later splice values into the cached skeleton. Fragment
// slots — positions where a variable subtree goes — must serialize exactly as
// they would inside a full DOM write, which depends on the writer's prefix
// state at that position. write_with_probes captures that state at compile
// time; write_fragment replays it at render time.

/// Prefix->URI bindings in scope, outermost first ("" = default namespace).
using PrefixBindings = std::vector<std::pair<std::string, std::string>>;

/// Writer state captured at a fragment placeholder during compilation.
struct ProbePoint {
  std::size_t offset;       // byte offset into the returned text
  PrefixBindings bindings;  // bindings in scope at the placeholder
  int gen_counter;          // generated-prefix counter (n1, n2, ...) so far
};

/// Serializes like write(), except elements in no namespace whose local name
/// equals `probe_local` emit nothing; their byte offset and the writer's
/// prefix state are recorded in `probes`. A placeholder must not be followed
/// by siblings that generate new prefixes, or render-time numbering would
/// diverge from the captured counter.
std::string write_with_probes(const Element& root, std::string_view probe_local,
                              std::vector<ProbePoint>& probes);

/// Serializes `nodes` as a sibling sequence positioned inside an enclosing
/// document: `bindings` seeds the in-scope prefixes and `gen_counter`
/// continues the enclosing writer's generated-prefix numbering (advanced past
/// any prefixes this call generates). Byte-identical to what write() would
/// have produced for the same nodes at a ProbePoint with this state.
std::string write_fragment(const std::vector<const Element*>& nodes,
                           const PrefixBindings& bindings, int& gen_counter);

}  // namespace gs::xml
