#include "xml/pull.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "xml/writer.hpp"

namespace gs::xml {
namespace {

bool is_name_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         static_cast<unsigned char>(c) >= 0x80;
}

bool is_name_char(char c) {
  return is_name_start(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

void append_utf8(std::string& out, unsigned long cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

constexpr std::string_view kXmlNsUri = "http://www.w3.org/XML/1998/namespace";

// In-scope prefix bindings over views (buffer- or arena-backed).
class ViewNsScope {
 public:
  ViewNsScope() { bind("xml", kXmlNsUri); }

  void push() { marks_.push_back(bindings_.size()); }
  void pop() {
    bindings_.resize(marks_.back());
    marks_.pop_back();
  }
  void bind(std::string_view prefix, std::string_view uri) {
    bindings_.emplace_back(prefix, uri);
  }
  const std::string_view* resolve(std::string_view prefix) const {
    for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
      if (it->first == prefix) return &it->second;
    }
    return nullptr;
  }

 private:
  std::vector<std::pair<std::string_view, std::string_view>> bindings_;
  std::vector<size_t> marks_;
};

class PullParser {
 public:
  PullParser(std::string_view input, Arena& arena, std::size_t& nodes)
      : in_(input), arena_(arena), nodes_(nodes) {}

  ArenaNode* parse_document() {
    skip_prolog();
    ArenaNode* root = parse_element();
    skip_misc();
    if (!at_end()) fail("trailing content after root element");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(msg, line_, static_cast<int>(pos_ - line_start_) + 1);
  }

  bool at_end() const noexcept { return pos_ >= in_.size(); }
  char peek() const { return pos_ < in_.size() ? in_[pos_] : '\0'; }
  bool starts_with(std::string_view s) const {
    return in_.compare(pos_, s.size(), s) == 0;
  }

  char advance() {
    if (at_end()) fail("unexpected end of input");
    char c = in_[pos_++];
    if (c == '\n') {
      ++line_;
      line_start_ = pos_;
    }
    return c;
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    advance();
  }

  void expect_str(std::string_view s) {
    if (!starts_with(s)) fail("expected '" + std::string(s) + "'");
    for (size_t i = 0; i < s.size(); ++i) advance();
  }

  void skip_ws() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) advance();
  }

  void skip_prolog() {
    skip_ws();
    if (starts_with("<?xml")) {
      while (!at_end() && !starts_with("?>")) advance();
      expect_str("?>");
    }
    skip_misc();
    if (starts_with("<!DOCTYPE")) fail("DTDs are not supported");
  }

  void skip_misc() {
    for (;;) {
      skip_ws();
      if (starts_with("<!--")) {
        skip_comment();
      } else if (starts_with("<?")) {
        skip_pi();
      } else {
        return;
      }
    }
  }

  void skip_comment() {
    expect_str("<!--");
    while (!at_end() && !starts_with("-->")) advance();
    expect_str("-->");
  }

  void skip_pi() {
    expect_str("<?");
    while (!at_end() && !starts_with("?>")) advance();
    expect_str("?>");
  }

  std::string_view read_name() {
    if (!is_name_start(peek())) fail("expected a name");
    size_t start = pos_;
    while (!at_end() && is_name_char(peek())) advance();
    return in_.substr(start, pos_ - start);
  }

  static std::pair<std::string_view, std::string_view> split_name(
      std::string_view raw) {
    auto colon = raw.find(':');
    if (colon == std::string_view::npos) return {std::string_view{}, raw};
    return {raw.substr(0, colon), raw.substr(colon + 1)};
  }

  // Reads a quoted attribute value; a view into the buffer when no entity
  // needed decoding, an arena copy of the decoded text otherwise.
  std::string_view read_attr_value() {
    char quote = peek();
    if (quote != '"' && quote != '\'') fail("expected quoted attribute value");
    advance();
    size_t start = pos_;
    std::string decoded;
    bool decoding = false;
    while (peek() != quote) {
      if (at_end()) fail("unexpected end of input");
      char c = peek();
      if (c == '&') {
        if (!decoding) {
          decoded.assign(in_.substr(start, pos_ - start));
          decoding = true;
        }
        advance();
        decoded += read_entity();
      } else if (c == '<') {
        advance();
        fail("'<' in attribute value");
      } else {
        advance();
        if (decoding) decoded += c;
      }
    }
    std::string_view out = decoding ? arena_.copy(decoded)
                                    : in_.substr(start, pos_ - start);
    advance();  // closing quote
    return out;
  }

  // Called just after the '&'; returns the replacement text.
  std::string read_entity() {
    std::string name;
    while (peek() != ';') {
      name += advance();
      if (name.size() > 10) fail("malformed entity reference");
    }
    advance();  // ';'
    if (name == "lt") return "<";
    if (name == "gt") return ">";
    if (name == "amp") return "&";
    if (name == "quot") return "\"";
    if (name == "apos") return "'";
    if (!name.empty() && name[0] == '#') {
      // A bare digit run: no sign, blanks or trailing junk.
      bool hex = name.size() > 1 && (name[1] == 'x' || name[1] == 'X');
      std::string_view digits = std::string_view(name).substr(hex ? 2 : 1);
      const char* end = digits.data() + digits.size();
      unsigned long cp = 0;
      auto [stop, ec] = std::from_chars(digits.data(), end, cp, hex ? 16 : 10);
      if (ec != std::errc() || stop != end)
        fail("malformed character reference &" + name + ";");
      if (cp == 0 || cp > 0x10FFFF) fail("character reference out of range");
      std::string out;
      append_utf8(out, cp);
      return out;
    }
    fail("unknown entity &" + name + ";");
  }

  ArenaNode* make_node(NodeKind kind) {
    ++nodes_;
    ArenaNode* n = arena_.make<ArenaNode>();
    n->kind = kind;
    return n;
  }

  ArenaNode* parse_element() {
    if (++depth_ > kMaxDepth) fail("document nesting exceeds the depth limit");
    struct DepthGuard {
      int& depth;
      ~DepthGuard() { --depth; }
    } depth_guard{depth_};

    expect('<');
    std::string_view raw_name = read_name();

    struct RawAttr {
      std::string_view name;
      std::string_view value;
    };
    std::vector<RawAttr> raw_attrs;
    for (;;) {
      skip_ws();
      char c = peek();
      if (c == '>' || c == '/') break;
      std::string_view aname = read_name();
      skip_ws();
      expect('=');
      skip_ws();
      raw_attrs.push_back({aname, read_attr_value()});
    }

    ns_.push();
    struct ScopeGuard {
      ViewNsScope& ns;
      ~ScopeGuard() { ns.pop(); }
    } guard{ns_};

    // Register namespace declarations before resolving any names.
    std::vector<ArenaNsDecl> decls;
    for (const auto& a : raw_attrs) {
      if (a.name == "xmlns") {
        ns_.bind({}, a.value);
        decls.push_back({std::string_view{}, a.value});
      } else if (a.name.starts_with("xmlns:")) {
        std::string_view prefix = a.name.substr(6);
        if (prefix.empty()) fail("empty namespace prefix");
        ns_.bind(prefix, a.value);
        decls.push_back({prefix, a.value});
      }
    }

    auto [prefix, local] = split_name(raw_name);
    ArenaNode* el = make_node(NodeKind::kElement);
    el->ns = resolve_element_ns(prefix);
    el->local = local;
    if (!decls.empty()) {
      el->decls = arena_.make_array<ArenaNsDecl>(decls.size());
      std::copy(decls.begin(), decls.end(), el->decls);
      el->ndecls = static_cast<std::uint32_t>(decls.size());
    }

    // Attributes in document order, xmlns pseudo-attributes excluded and
    // duplicate QNames collapsing onto the first occurrence (set_attr-style).
    std::vector<ArenaAttr> attrs;
    for (const auto& a : raw_attrs) {
      if (a.name == "xmlns" || a.name.starts_with("xmlns:")) continue;
      auto [ap, al] = split_name(a.name);
      std::string_view ans = resolve_attr_ns(ap);
      auto dup = std::find_if(attrs.begin(), attrs.end(), [&](const ArenaAttr& x) {
        return x.ns == ans && x.local == al;
      });
      if (dup != attrs.end()) {
        dup->value = a.value;
      } else {
        attrs.push_back({ans, al, a.value});
      }
    }
    if (!attrs.empty()) {
      el->attrs = arena_.make_array<ArenaAttr>(attrs.size());
      std::copy(attrs.begin(), attrs.end(), el->attrs);
      el->nattrs = static_cast<std::uint32_t>(attrs.size());
    }

    if (peek() == '/') {
      advance();
      expect('>');
      return el;
    }
    expect('>');

    parse_content(*el);

    expect_str("</");
    std::string_view close = read_name();
    if (close != raw_name)
      fail("mismatched closing tag </" + std::string(close) + "> for <" +
           std::string(raw_name) + ">");
    skip_ws();
    expect('>');
    return el;
  }

  std::string_view resolve_element_ns(std::string_view prefix) {
    const std::string_view* uri = ns_.resolve(prefix);
    if (!uri) {
      if (prefix.empty()) return {};
      fail("unbound namespace prefix '" + std::string(prefix) + "'");
    }
    return *uri;  // empty = undeclared default ns = no namespace
  }

  std::string_view resolve_attr_ns(std::string_view prefix) {
    if (prefix.empty()) return {};  // unprefixed attrs: no namespace
    const std::string_view* uri = ns_.resolve(prefix);
    if (!uri || uri->empty())
      fail("unbound namespace prefix '" + std::string(prefix) + "'");
    return *uri;
  }

  void parse_content(ArenaNode& parent) {
    ArenaNode* tail = nullptr;
    auto append = [&](ArenaNode* n) {
      if (tail) {
        tail->next = n;
      } else {
        parent.first_child = n;
      }
      tail = n;
    };

    // Text runs accumulate until the next markup; runs that needed entity
    // decoding are copied into the arena, plain runs stay buffer views.
    size_t text_start = pos_;
    std::string decoded;
    bool decoding = false;
    bool have_text = false;
    auto flush_text = [&] {
      std::string_view run = decoding ? arena_.copy(decoded)
                                      : in_.substr(text_start, pos_ - text_start);
      if (have_text && !run.empty()) {
        ArenaNode* t = make_node(NodeKind::kText);
        t->text_data = run;
        append(t);
      }
      decoded.clear();
      decoding = false;
      have_text = false;
    };

    for (;;) {
      if (at_end()) fail("unexpected end of input inside element");
      if (starts_with("</")) {
        flush_text();
        return;
      }
      if (starts_with("<!--")) {
        flush_text();
        size_t start = pos_ + 4;
        skip_comment();
        ArenaNode* c = make_node(NodeKind::kComment);
        c->text_data = in_.substr(start, pos_ - 3 - start);
        append(c);
        text_start = pos_;
        continue;
      }
      if (starts_with("<![CDATA[")) {
        flush_text();
        expect_str("<![CDATA[");
        size_t start = pos_;
        while (!starts_with("]]>")) {
          if (at_end()) fail("unterminated CDATA section");
          advance();
        }
        ArenaNode* c = make_node(NodeKind::kCData);
        c->text_data = in_.substr(start, pos_ - start);
        expect_str("]]>");
        append(c);
        text_start = pos_;
        continue;
      }
      if (starts_with("<?")) {
        flush_text();
        skip_pi();
        text_start = pos_;
        continue;
      }
      if (peek() == '<') {
        flush_text();
        append(parse_element());
        text_start = pos_;
        continue;
      }
      char c = peek();
      if (c == '&') {
        if (!decoding) {
          decoded.assign(in_.substr(text_start, pos_ - text_start));
          decoding = true;
        }
        advance();
        decoded += read_entity();
        have_text = true;
      } else {
        advance();
        if (decoding) decoded += c;
        have_text = true;
      }
    }
  }

  static constexpr int kMaxDepth = 256;

  std::string_view in_;
  Arena& arena_;
  std::size_t& nodes_;
  size_t pos_ = 0;
  int line_ = 1;
  size_t line_start_ = 0;
  int depth_ = 0;
  ViewNsScope ns_;
};

}  // namespace

const ArenaNode* ArenaNode::child(std::string_view ns_uri,
                                  std::string_view local_name) const {
  for (const ArenaNode* c = first_child; c; c = c->next) {
    if (c->kind == NodeKind::kElement && c->ns == ns_uri && c->local == local_name)
      return c;
  }
  return nullptr;
}

const ArenaNode* ArenaNode::child_local(std::string_view local_name) const {
  for (const ArenaNode* c = first_child; c; c = c->next) {
    if (c->kind == NodeKind::kElement && c->local == local_name) return c;
  }
  return nullptr;
}

const ArenaNode* ArenaNode::first_element() const {
  for (const ArenaNode* c = first_child; c; c = c->next) {
    if (c->kind == NodeKind::kElement) return c;
  }
  return nullptr;
}

std::optional<std::string_view> ArenaNode::attr(std::string_view ns_uri,
                                                std::string_view local_name) const {
  for (std::uint32_t i = 0; i < nattrs; ++i) {
    if (attrs[i].ns == ns_uri && attrs[i].local == local_name)
      return attrs[i].value;
  }
  return std::nullopt;
}

std::optional<std::string_view> ArenaNode::attr_local(
    std::string_view local_name) const {
  for (std::uint32_t i = 0; i < nattrs; ++i) {
    if (attrs[i].local == local_name) return attrs[i].value;
  }
  return std::nullopt;
}

std::string ArenaNode::text() const {
  std::string out;
  for (const ArenaNode* c = first_child; c; c = c->next) {
    if (c->kind == NodeKind::kText || c->kind == NodeKind::kCData)
      out += c->text_data;
  }
  return out;
}

std::string ArenaNode::clark() const {
  if (ns.empty()) return std::string(local);
  return "{" + std::string(ns) + "}" + std::string(local);
}

ArenaDocument ArenaDocument::parse(std::string input) {
  ArenaDocument doc;
  doc.buffer_ = std::make_unique<const std::string>(std::move(input));
  doc.root_ = PullParser(*doc.buffer_, doc.arena_, doc.nodes_).parse_document();
  return doc;
}

std::unique_ptr<Element> parse_element(std::string_view input) {
  // The view tree only lives until to_dom has copied it out, so it can point
  // straight into the caller's buffer.
  Arena arena;
  std::size_t nodes = 0;
  return ArenaDocument::to_dom(*PullParser(input, arena, nodes).parse_document());
}

std::unique_ptr<Element> ArenaDocument::to_dom(const ArenaNode& el) {
  auto out = std::make_unique<Element>(
      el.ns.empty() ? QName(std::string(el.local))
                    : QName(std::string(el.ns), std::string(el.local)));
  for (std::uint32_t i = 0; i < el.ndecls; ++i) {
    out->declare_prefix(std::string(el.decls[i].prefix),
                        std::string(el.decls[i].uri));
  }
  for (std::uint32_t i = 0; i < el.nattrs; ++i) {
    const ArenaAttr& a = el.attrs[i];
    out->set_attr(a.ns.empty() ? QName(std::string(a.local))
                               : QName(std::string(a.ns), std::string(a.local)),
                  std::string(a.value));
  }
  for (const ArenaNode* c = el.first_child; c; c = c->next) {
    switch (c->kind) {
      case NodeKind::kElement:
        out->append(to_dom(*c));
        break;
      case NodeKind::kText:
        out->append_text(std::string(c->text_data));
        break;
      case NodeKind::kComment:
      case NodeKind::kCData:
        out->append(std::make_unique<CharData>(c->kind, std::string(c->text_data)));
        break;
    }
  }
  return out;
}

namespace {

// View-tree canonicalizer in lockstep with canonical.cpp's Canonicalizer:
// same deterministic ns{n} prefixes in first-use order, same attribute sort,
// comments stripped, CDATA folded. Equal logical documents must produce
// identical octets from either entry point.
class ViewCanonicalizer {
 public:
  std::string run(const ArenaNode& root) {
    walk(root);
    return std::move(out_);
  }

 private:
  std::string prefix_for(std::string_view uri,
                         std::vector<std::pair<std::string, std::string_view>>&
                             new_bindings) {
    auto it = prefixes_.find(uri);
    bool inserted = false;
    if (it == prefixes_.end()) {
      it = prefixes_.emplace(std::string(uri), prefixes_.size()).first;
      inserted = true;
    }
    std::string prefix = "ns" + std::to_string(it->second);
    if (inserted) new_bindings.emplace_back(prefix, uri);
    return prefix;
  }

  std::string qualified(std::string_view ns, std::string_view local,
                        std::vector<std::pair<std::string, std::string_view>>&
                            new_bindings) {
    if (ns.empty()) return std::string(local);
    return prefix_for(ns, new_bindings) + ":" + std::string(local);
  }

  void walk(const ArenaNode& el) {
    std::vector<std::pair<std::string, std::string_view>> new_bindings;
    std::string tag = qualified(el.ns, el.local, new_bindings);

    std::vector<const ArenaAttr*> attrs;
    attrs.reserve(el.nattrs);
    for (std::uint32_t i = 0; i < el.nattrs; ++i) attrs.push_back(&el.attrs[i]);
    std::sort(attrs.begin(), attrs.end(), [](const ArenaAttr* a, const ArenaAttr* b) {
      return std::tie(a->ns, a->local) < std::tie(b->ns, b->local);
    });
    std::string attr_text;
    for (const ArenaAttr* a : attrs) {
      attr_text += ' ';
      attr_text += qualified(a->ns, a->local, new_bindings);
      attr_text += "=\"";
      attr_text += escape_text(a->value, /*in_attribute=*/true);
      attr_text += '"';
    }

    out_ += '<';
    out_ += tag;
    for (const auto& [prefix, uri] : new_bindings) {
      out_ += " xmlns:";
      out_ += prefix;
      out_ += "=\"";
      out_ += escape_text(uri, /*in_attribute=*/true);
      out_ += '"';
    }
    out_ += attr_text;
    out_ += '>';

    for (const ArenaNode* c = el.first_child; c; c = c->next) {
      switch (c->kind) {
        case NodeKind::kElement:
          walk(*c);
          break;
        case NodeKind::kText:
        case NodeKind::kCData:
          out_ += escape_text(c->text_data);
          break;
        case NodeKind::kComment:
          break;
      }
    }
    out_ += "</";
    out_ += tag;
    out_ += '>';
  }

  std::string out_;
  std::map<std::string, size_t, std::less<>> prefixes_;
};

}  // namespace

std::string canonicalize_view(const ArenaNode& el) {
  return ViewCanonicalizer().run(el);
}

}  // namespace gs::xml
