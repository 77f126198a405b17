// XML serialization.
#pragma once

#include <memory>
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

/// Prefix->URI bindings in scope, outermost first ("" = default namespace).
using PrefixBindings = std::vector<std::pair<std::string, std::string>>;

/// Appends `nodes` to `out` as a sibling sequence positioned inside an
/// enclosing document: `bindings` seeds the in-scope prefixes and
/// `gen_counter` continues the enclosing writer's generated-prefix numbering
/// (advanced past any prefixes this call generates). Byte-identical to what
/// write() produces for the same nodes at a position with this state. A
/// sibling sequence leaves the scope as it found it, so successive calls
/// under the same bindings that thread `gen_counter` make one writer pass.
void write_fragment(std::string& out,
                    const std::vector<std::unique_ptr<Element>>& nodes,
                    const PrefixBindings& bindings, int& gen_counter);

}  // namespace gs::xml
