#include "xml/writer.hpp"

#include <array>
#include <forward_list>
#include <vector>

namespace gs::xml {
namespace {

// Generated prefix names ("n1", "n2", ...) the writer binds by view. The
// first kNamedPrefixes come from a shared table; a document needing more
// keeps the rest in its writer.
constexpr int kNamedPrefixes = 256;

const std::array<std::string, kNamedPrefixes>& generated_prefixes() {
  static const auto table = [] {
    std::array<std::string, kNamedPrefixes> t;
    for (int i = 0; i < kNamedPrefixes; ++i) t[i] = "n" + std::to_string(i);
    return t;
  }();
  return table;
}

// Tracks in-scope prefix->URI bindings during serialization. Bindings are
// views: of the tree's own strings, of generated prefix names, or of the
// caller's PrefixBindings — all outlive the write. The bindings an element
// made are exactly those past the mark taken when it opened, in order.
class PrefixScope {
 public:
  using Binding = std::pair<std::string_view, std::string_view>;

  std::size_t mark() const noexcept { return bindings_.size(); }
  void pop_to(std::size_t mark) { bindings_.resize(mark); }
  const Binding& at(std::size_t i) const { return bindings_[i]; }

  void bind(std::string_view prefix, std::string_view uri) {
    bindings_.emplace_back(prefix, uri);
  }
  // Innermost prefix bound to this URI, or nullptr. `allow_default` is false
  // for attributes, which cannot use the default namespace.
  const std::string_view* prefix_for(std::string_view uri, bool allow_default) const {
    for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
      if (it->second != uri) continue;
      if (!allow_default && it->first.empty()) continue;
      // The binding must not be shadowed by a later one with the same prefix.
      if (resolve(it->first) == &it->second) return &it->first;
    }
    return nullptr;
  }
  const std::string_view* resolve(std::string_view prefix) const {
    for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
      if (it->first == prefix) return &it->second;
    }
    return nullptr;
  }
 private:
  std::vector<Binding> bindings_;
};

// Appends to a caller's buffer.
class Writer {
 public:
  Writer(const WriteOptions& opts, std::string& out) : opts_(opts), out_(out) {}

  void run(const Element& root) {
    if (opts_.declaration) out_ += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
    if (opts_.declaration && opts_.pretty) out_ += '\n';
    write_element(root, 0);
  }

  /// Seeds the scope and generated-prefix counter with an enclosing
  /// document's state, then writes a sibling sequence.
  void run_fragment(const std::vector<std::unique_ptr<Element>>& nodes,
                    const PrefixBindings& bindings, int& gen_counter) {
    for (const auto& [prefix, uri] : bindings) scope_.bind(prefix, uri);
    gen_counter_ = gen_counter;
    for (const auto& el : nodes) write_element(*el, 0);
    gen_counter = gen_counter_;
  }

 private:
  void indent(int depth) {
    out_ += '\n';
    out_.append(static_cast<size_t>(depth) * 2, ' ');
  }

  void write_qname(std::string_view prefix, const std::string& local) {
    if (!prefix.empty()) {
      out_ += prefix;
      out_ += ':';
    }
    out_ += local;
  }

  void write_element(const Element& el, int depth) {
    const std::size_t mark = scope_.mark();

    // Bind everything this element declares before writing a byte: its
    // hinted declarations, then whatever its name and attribute names need.
    for (const auto& [prefix, uri] : el.ns_decls()) {
      if (const std::string_view* bound = scope_.resolve(prefix);
          bound && *bound == uri) {
        continue;  // already in scope
      }
      scope_.bind(prefix, uri);
    }
    const std::string_view tag_prefix = qualify(el.name(), /*is_attribute=*/false);
    for (const auto& a : el.attributes()) qualify(a.name, /*is_attribute=*/true);

    out_ += '<';
    write_qname(tag_prefix, el.name().local());
    for (std::size_t i = mark; i < scope_.mark(); ++i) {
      const auto& [prefix, uri] = scope_.at(i);
      out_ += prefix.empty() ? " xmlns" : " xmlns:";
      out_ += prefix;
      out_ += "=\"";
      escape_into(out_, uri, true);
      out_ += '"';
    }
    for (const auto& a : el.attributes()) {
      out_ += ' ';
      // Pass one bound a prefix for every namespaced attribute, so this
      // lookup finds the prefix qualify() chose.
      write_qname(a.name.ns().empty() ? std::string_view{}
                                      : *scope_.prefix_for(a.name.ns(), false),
                  a.name.local());
      out_ += "=\"";
      escape_into(out_, a.value, true);
      out_ += '"';
    }

    if (!el.has_children()) {
      out_ += "/>";
      scope_.pop_to(mark);
      return;
    }
    out_ += '>';

    bool mixed = false;
    for (const auto& c : el.children()) {
      if (c->kind() == NodeKind::kText || c->kind() == NodeKind::kCData) {
        mixed = true;
        break;
      }
    }
    bool pretty_here = opts_.pretty && !mixed;

    for (const auto& c : el.children()) {
      switch (c->kind()) {
        case NodeKind::kElement:
          if (pretty_here) indent(depth + 1);
          write_element(static_cast<const Element&>(*c), depth + 1);
          break;
        case NodeKind::kText:
          escape_into(out_, static_cast<const CharData&>(*c).text());
          break;
        case NodeKind::kCData:
          out_ += "<![CDATA[";
          out_ += static_cast<const CharData&>(*c).text();
          out_ += "]]>";
          break;
        case NodeKind::kComment:
          if (pretty_here) indent(depth + 1);
          out_ += "<!--";
          out_ += static_cast<const CharData&>(*c).text();
          out_ += "-->";
          break;
      }
    }
    if (pretty_here) indent(depth);
    out_ += "</";
    write_qname(tag_prefix, el.name().local());
    out_ += '>';
    scope_.pop_to(mark);
  }

  // Returns the prefix to write `name` with ("" = none), binding a new
  // declaration in this element's scope if the URI is not yet reachable.
  std::string_view qualify(const QName& name, bool is_attribute) {
    if (name.ns().empty()) {
      // For elements, a no-namespace name requires the default namespace to
      // be unset in scope. We only undeclare if a default namespace applies.
      if (!is_attribute) {
        if (const std::string_view* dflt = scope_.resolve("");
            dflt && !dflt->empty()) {
          scope_.bind("", "");
        }
      }
      return {};
    }
    if (const std::string_view* p = scope_.prefix_for(name.ns(), !is_attribute)) {
      return *p;
    }
    // Invent a prefix.
    std::string_view prefix;
    do {
      prefix = generated_prefix(++gen_counter_);
    } while (scope_.resolve(prefix));
    scope_.bind(prefix, name.ns());
    return prefix;
  }

  std::string_view generated_prefix(int n) {
    if (n < kNamedPrefixes) return generated_prefixes()[n];
    return spilled_prefixes_.emplace_front("n" + std::to_string(n));
  }

  const WriteOptions& opts_;
  std::string& out_;
  PrefixScope scope_;
  int gen_counter_ = 0;
  std::forward_list<std::string> spilled_prefixes_;
};

// Bytes escape_into rewrites: markup, the quote (attributes only), and C0
// controls; 1 = always, 2 = in attributes only.
constexpr std::array<unsigned char, 256> kEscapeClass = [] {
  std::array<unsigned char, 256> t{};
  for (int c = 0; c < 0x20; ++c) t[c] = 1;
  t['\t'] = t['\n'] = t['\r'] = 2;
  t['&'] = t['<'] = t['>'] = 1;
  t['"'] = 2;
  return t;
}();

}  // namespace

void escape_into(std::string& out, std::string_view raw, bool in_attribute) {
  const unsigned char mask = in_attribute ? 3 : 1;
  std::size_t run = 0;  // start of the pending verbatim run
  for (std::size_t i = 0; i < raw.size(); ++i) {
    char c = raw[i];
    if (!(kEscapeClass[static_cast<unsigned char>(c)] & mask)) continue;
    out.append(raw.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      // Whitespace in attribute values must ride as character references:
      // a parser normalizes literal tab/CR/LF to spaces, so event messages
      // and fault text would not round-trip. (Our parser decodes &#n;.)
      case '\t': out += "&#9;"; break;
      case '\n': out += "&#10;"; break;
      case '\r': out += "&#13;"; break;
      // Remaining C0 controls are not legal XML 1.0 characters at all, even
      // as references; substitute U+FFFD so arbitrary fault/event payloads
      // can never produce an unparseable document.
      default: out += "\xEF\xBF\xBD"; break;
    }
  }
  out.append(raw.substr(run));
}

std::string escape_text(std::string_view raw, bool in_attribute) {
  std::string out;
  out.reserve(raw.size());
  escape_into(out, raw, in_attribute);
  return out;
}

std::string write(const Element& root, const WriteOptions& options) {
  std::string out;
  Writer(options, out).run(root);
  return out;
}

void write_into(std::string& out, const Element& root, const WriteOptions& options) {
  out.clear();
  Writer(options, out).run(root);
}

void write_fragment(std::string& out,
                    const std::vector<std::unique_ptr<Element>>& nodes,
                    const PrefixBindings& bindings, int& gen_counter) {
  if (nodes.empty()) return;
  WriteOptions opts;
  Writer(opts, out).run_fragment(nodes, bindings, gen_counter);
}

}  // namespace gs::xml
