// In-memory XML document model (DOM-lite).
//
// Both software stacks in the paper move XML documents end to end: SOAP
// envelopes on the wire, resource-property documents in services, and raw
// documents in the Xindice-substitute database. This module is the shared
// representation. It is deliberately small: elements, text, comments and
// CDATA, with namespace-aware names and attributes.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xml/probe.hpp"
#include "xml/qname.hpp"

namespace gs::xml {

class Element;

/// A namespaced attribute with a string value.
struct Attribute {
  QName name;
  std::string value;

  friend bool operator==(const Attribute&, const Attribute&) = default;
};

/// Kind discriminator for child nodes.
enum class NodeKind { kElement, kText, kComment, kCData };

/// Base of all tree nodes. Children are owned by their parent element.
class Node {
 public:
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeKind kind() const noexcept { return kind_; }
  /// Parent element, or nullptr for a detached/root node.
  Element* parent() const noexcept { return parent_; }

  virtual std::unique_ptr<Node> clone() const = 0;

 protected:
  explicit Node(NodeKind kind) : kind_(kind) { probe::add_dom_node(); }

 private:
  friend class Element;
  NodeKind kind_;
  Element* parent_ = nullptr;
};

/// Character data node (text, comment, or CDATA depending on kind).
class CharData final : public Node {
 public:
  CharData(NodeKind kind, std::string text)
      : Node(kind), text_(std::move(text)) {}

  const std::string& text() const noexcept { return text_; }
  void set_text(std::string t) { text_ = std::move(t); }

  std::unique_ptr<Node> clone() const override {
    return std::make_unique<CharData>(kind(), text_);
  }

 private:
  std::string text_;
};

/// An XML element: a QName, attributes, namespace declarations made on this
/// element, and an ordered list of owned child nodes.
class Element final : public Node {
 public:
  explicit Element(QName name) : Node(NodeKind::kElement), name_(std::move(name)) {}
  Element(std::string ns, std::string local)
      : Element(QName(std::move(ns), std::move(local))) {}

  const QName& name() const noexcept { return name_; }
  void set_name(QName n) { name_ = std::move(n); }

  // --- attributes -----------------------------------------------------------

  const std::vector<Attribute>& attributes() const noexcept { return attrs_; }
  /// Sets (or replaces) an attribute value.
  void set_attr(QName name, std::string value);
  void set_attr(std::string local, std::string value) {
    set_attr(QName(std::move(local)), std::move(value));
  }
  /// Attribute value, or nullopt if absent.
  std::optional<std::string> attr(const QName& name) const;
  std::optional<std::string> attr(std::string_view local) const;
  bool remove_attr(const QName& name);

  // --- children -------------------------------------------------------------

  const std::vector<std::unique_ptr<Node>>& children() const noexcept {
    return children_;
  }
  bool has_children() const noexcept { return !children_.empty(); }

  /// Appends a child node, taking ownership; returns a reference to it.
  Node& append(std::unique_ptr<Node> child);
  /// Convenience: appends and returns a new child element.
  Element& append_element(QName name);
  Element& append_element(std::string ns, std::string local) {
    return append_element(QName(std::move(ns), std::move(local)));
  }
  /// Appends a text node.
  void append_text(std::string text);
  /// Removes (and destroys) the given child; returns false if not a child.
  bool remove_child(const Node& child);
  /// Detaches the given child, transferring ownership to the caller.
  std::unique_ptr<Node> detach_child(const Node& child);
  /// Removes all children.
  void clear_children() { children_.clear(); }

  /// First child element with the given name, or nullptr.
  Element* child(const QName& name);
  const Element* child(const QName& name) const;
  /// First child element with the given local name (any namespace), or nullptr.
  Element* child_local(std::string_view local);
  const Element* child_local(std::string_view local) const;
  /// All child elements (in document order).
  std::vector<Element*> child_elements();
  std::vector<const Element*> child_elements() const;
  /// All child elements with the given name.
  std::vector<const Element*> children_named(const QName& name) const;

  /// Concatenated text content of this element's direct text/CDATA children.
  std::string text() const;
  /// Replaces all children with a single text node.
  void set_text(std::string text);

  // --- namespace prefix hints -----------------------------------------------

  /// Declares a preferred prefix for a namespace URI when serializing the
  /// subtree rooted here ("" = default namespace).
  void declare_prefix(std::string prefix, std::string uri) {
    ns_decls_.push_back({std::move(prefix), std::move(uri)});
  }
  const std::vector<std::pair<std::string, std::string>>& ns_decls() const {
    return ns_decls_;
  }

  /// Deep-copies the subtree.
  std::unique_ptr<Node> clone() const override;
  std::unique_ptr<Element> clone_element() const;

  /// Structural equality (names, attributes as sets, children in order,
  /// text content). Prefix hints are ignored.
  static bool deep_equal(const Element& a, const Element& b);

 private:
  QName name_;
  std::vector<Attribute> attrs_;
  std::vector<std::unique_ptr<Node>> children_;
  std::vector<std::pair<std::string, std::string>> ns_decls_;
};

}  // namespace gs::xml
