// Namespace-aware XML parser.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "xml/node.hpp"

namespace gs::xml {

/// Thrown on malformed input; carries a 1-based line/column position.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::string message, int line, int column)
      : std::runtime_error(message + " at line " + std::to_string(line) +
                           ", column " + std::to_string(column)),
        line_(line),
        column_(column) {}

  int line() const noexcept { return line_; }
  int column() const noexcept { return column_; }

 private:
  int line_;
  int column_;
};

/// Parses a complete XML document and returns its root element as a DOM.
///
/// Supported: prolog (`<?xml ...?>`), namespaces (default + prefixed,
/// including undeclaration), attributes, character data, the five built-in
/// entities plus decimal/hex character references, comments, CDATA sections
/// and processing instructions (skipped). DTDs are rejected.
///
/// Runs the pull parser (pull.hpp) over `input` without copying it, then
/// materializes the tree. Throws ParseError on malformed input.
std::unique_ptr<Element> parse_element(std::string_view input);

}  // namespace gs::xml
