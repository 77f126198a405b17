#include "xml/pull.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "xml/writer.hpp"

namespace gs::xml {
namespace {

// Byte classes for the scanner: one table lookup per name or blank byte.
// Name bytes are ASCII letters, digits and "_:-." plus every non-ASCII byte
// (UTF-8 sequences are taken whole); blanks are the C locale's isspace set.
enum : unsigned char { kNameStart = 1, kNameChar = 2, kBlank = 4 };

constexpr std::array<unsigned char, 256> kByteClass = [] {
  std::array<unsigned char, 256> table{};
  for (int c = 0; c < 256; ++c) {
    bool start = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
                 c == ':' || c >= 0x80;
    bool name = start || (c >= '0' && c <= '9') || c == '-' || c == '.';
    bool blank = c == ' ' || (c >= '\t' && c <= '\r');
    table[c] = static_cast<unsigned char>((start ? kNameStart : 0) |
                                          (name ? kNameChar : 0) |
                                          (blank ? kBlank : 0));
  }
  return table;
}();

bool has_class(char c, unsigned char cls) {
  return (kByteClass[static_cast<unsigned char>(c)] & cls) != 0;
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

// Working storage one parse needs beyond the arena. It lives per thread and
// is reused by every element of every parse on that thread, so steady-state
// parsing allocates nothing here. Each element consumes its attributes and
// declarations before its children start, so one set of vectors serves
// every level; the namespace scope is a stack restored on element exit.
struct Scratch {
  struct RawAttr {
    std::string_view name;
    std::string_view value;
  };
  std::vector<RawAttr> raw_attrs;
  std::vector<ArenaNsDecl> decls;
  std::vector<ArenaAttr> attrs;
  // In-scope prefix bindings, innermost last (buffer- or arena-backed views).
  std::vector<std::pair<std::string_view, std::string_view>> scope;
  std::string decoded;  // the entity-decoded run being assembled

  void reset() {
    // A pathological document may have grown these; do not keep that
    // memory on the thread for good.
    constexpr std::size_t kKeep = 1024;
    if (raw_attrs.capacity() > kKeep) raw_attrs = {};
    if (decls.capacity() > kKeep) decls = {};
    if (attrs.capacity() > kKeep) attrs = {};
    if (scope.capacity() > kKeep) scope = {};
    if (decoded.capacity() > 64 * kKeep) decoded = {};
    scope.clear();
    scope.emplace_back("xml", kXmlNsUri);
  }
};

class PullParser {
 public:
  PullParser(std::string_view input, Arena& arena, std::size_t& nodes)
      : in_(input), arena_(arena), nodes_(nodes), s_(scratch()) {
    s_.reset();
  }

  ArenaNode* parse_document() {
    skip_prolog();
    ArenaNode* root = parse_element();
    skip_misc();
    if (!at_end()) fail("trailing content after root element");
    return root;
  }

 private:
  static Scratch& scratch() {
    thread_local Scratch s;
    return s;
  }

  // The position is derived from the consumed prefix only when a parse
  // fails, so the scanning loops never count lines.
  [[noreturn]] void fail(const std::string& msg) const {
    std::string_view seen = in_.substr(0, pos_);
    auto line = static_cast<int>(std::count(seen.begin(), seen.end(), '\n')) + 1;
    size_t nl = seen.rfind('\n');
    size_t line_start = nl == std::string_view::npos ? 0 : nl + 1;
    throw ParseError(msg, line, static_cast<int>(pos_ - line_start) + 1);
  }

  bool at_end() const noexcept { return pos_ >= in_.size(); }
  char peek() const { return pos_ < in_.size() ? in_[pos_] : '\0'; }
  bool starts_with(std::string_view s) const {
    return in_.compare(pos_, s.size(), s) == 0;
  }

  // Index of the first `c` at or after `from` and before `to`, or `to`.
  size_t find_byte(char c, size_t from, size_t to) const {
    const void* hit = std::memchr(in_.data() + from, c, to - from);
    return hit ? static_cast<size_t>(static_cast<const char*>(hit) - in_.data())
               : to;
  }
  // Index of the first `a` or `b` in [from, to), or `to`.
  size_t find_either(char a, char b, size_t from, size_t to) const {
    return find_byte(b, from, find_byte(a, from, to));
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void expect_str(std::string_view s) {
    if (!starts_with(s)) fail("expected '" + std::string(s) + "'");
    pos_ += s.size();
  }

  // Moves past `terminator`, searching from the current position; at the
  // end of input without one, fails with `msg` there.
  void skip_past(std::string_view terminator, const std::string& msg) {
    size_t at = in_.find(terminator, pos_);
    if (at == std::string_view::npos) {
      pos_ = in_.size();
      fail(msg);
    }
    pos_ = at + terminator.size();
  }

  void skip_ws() {
    while (pos_ < in_.size() && has_class(in_[pos_], kBlank)) ++pos_;
  }

  void skip_prolog() {
    skip_ws();
    if (starts_with("<?xml")) skip_past("?>", "expected '?>'");
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
    pos_ += 4;  // "<!--"
    skip_past("-->", "expected '-->'");
  }

  void skip_pi() {
    pos_ += 2;  // "<?"
    skip_past("?>", "expected '?>'");
  }

  std::string_view read_name() {
    if (!has_class(peek(), kNameStart)) fail("expected a name");
    size_t start = pos_++;
    while (pos_ < in_.size() && has_class(in_[pos_], kNameChar)) ++pos_;
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
    size_t start = ++pos_;
    size_t close = find_byte(quote, pos_, in_.size());
    bool decoding = false;
    for (;;) {
      size_t stop = find_either('<', '&', pos_, close);
      if (decoding) s_.decoded.append(in_.substr(pos_, stop - pos_));
      if (stop == close) {
        pos_ = close;
        if (at_end()) fail("unexpected end of input");
        break;
      }
      pos_ = stop + 1;
      if (in_[stop] == '<') fail("'<' in attribute value");
      if (!decoding) {
        s_.decoded.assign(in_.substr(start, stop - start));
        decoding = true;
      }
      read_entity(s_.decoded);
      // An entity never contains the quote, but it may have run past a
      // quote that only looked like the closing one ("&x'...;").
      if (pos_ > close) close = find_byte(quote, pos_, in_.size());
    }
    std::string_view out = decoding ? arena_.copy(s_.decoded)
                                    : in_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    return out;
  }

  // Called just after the '&'; appends the replacement text to `out`.
  void read_entity(std::string& out) {
    size_t start = pos_;
    size_t end = start;
    for (;;) {
      if (end == in_.size()) {
        pos_ = end;
        fail("unexpected end of input");
      }
      if (in_[end] == ';') break;
      if (++end - start > 10) {
        pos_ = end;
        fail("malformed entity reference");
      }
    }
    std::string_view name = in_.substr(start, end - start);
    pos_ = end + 1;  // past ';'
    if (name == "lt") {
      out += '<';
    } else if (name == "gt") {
      out += '>';
    } else if (name == "amp") {
      out += '&';
    } else if (name == "quot") {
      out += '"';
    } else if (name == "apos") {
      out += '\'';
    } else if (!name.empty() && name[0] == '#') {
      // A bare digit run: no sign, blanks or trailing junk.
      bool hex = name.size() > 1 && (name[1] == 'x' || name[1] == 'X');
      std::string_view digits = name.substr(hex ? 2 : 1);
      const char* digits_end = digits.data() + digits.size();
      unsigned long cp = 0;
      auto [stop, ec] =
          std::from_chars(digits.data(), digits_end, cp, hex ? 16 : 10);
      if (ec != std::errc() || stop != digits_end)
        fail("malformed character reference &" + std::string(name) + ";");
      if (cp == 0 || cp > 0x10FFFF) fail("character reference out of range");
      append_utf8(out, cp);
    } else {
      fail("unknown entity &" + std::string(name) + ";");
    }
  }

  ArenaNode* make_node(NodeKind kind) {
    ++nodes_;
    ArenaNode* n = arena_.make<ArenaNode>();
    n->kind = kind;
    return n;
  }

  ArenaNode* make_chars(NodeKind kind, std::string_view text) {
    ArenaNode* n = make_node(kind);
    n->text_data = text;
    return n;
  }

  static bool is_xmlns(std::string_view name) {
    return name.starts_with("xmlns") && (name.size() == 5 || name[5] == ':');
  }

  ArenaNode* parse_element() {
    if (++depth_ > kMaxDepth) fail("document nesting exceeds the depth limit");
    struct DepthGuard {
      int& depth;
      ~DepthGuard() { --depth; }
    } depth_guard{depth_};

    expect('<');
    std::string_view raw_name = read_name();

    s_.raw_attrs.clear();
    for (;;) {
      skip_ws();
      char c = peek();
      if (c == '>' || c == '/') break;
      std::string_view aname = read_name();
      skip_ws();
      expect('=');
      skip_ws();
      s_.raw_attrs.push_back({aname, read_attr_value()});
    }

    // Register namespace declarations before resolving any names; the
    // bindings are dropped again when this element ends.
    const size_t scope_mark = s_.scope.size();
    s_.decls.clear();
    for (const auto& a : s_.raw_attrs) {
      if (!is_xmlns(a.name)) continue;
      std::string_view prefix = a.name.size() == 5 ? std::string_view{}
                                                   : a.name.substr(6);
      if (a.name.size() > 5 && prefix.empty()) fail("empty namespace prefix");
      s_.scope.emplace_back(prefix, a.value);
      s_.decls.push_back({prefix, a.value});
    }

    auto [prefix, local] = split_name(raw_name);
    ArenaNode* el = make_node(NodeKind::kElement);
    el->ns = resolve_element_ns(prefix);
    el->local = local;
    el->decls = copy_out(s_.decls, el->ndecls);

    // Attributes in document order, xmlns pseudo-attributes excluded and
    // duplicate QNames collapsing onto the first occurrence (set_attr-style).
    s_.attrs.clear();
    for (const auto& a : s_.raw_attrs) {
      if (is_xmlns(a.name)) continue;
      auto [ap, al] = split_name(a.name);
      std::string_view ans = resolve_attr_ns(ap);
      auto dup = std::find_if(s_.attrs.begin(), s_.attrs.end(),
                              [&](const ArenaAttr& x) {
                                return x.ns == ans && x.local == al;
                              });
      if (dup != s_.attrs.end()) {
        dup->value = a.value;
      } else {
        s_.attrs.push_back({ans, al, a.value});
      }
    }
    el->attrs = copy_out(s_.attrs, el->nattrs);

    if (peek() == '/') {
      ++pos_;
      expect('>');
    } else {
      expect('>');
      parse_content(*el);
      pos_ += 2;  // "</", found by parse_content
      std::string_view close = read_name();
      if (close != raw_name)
        fail("mismatched closing tag </" + std::string(close) + "> for <" +
             std::string(raw_name) + ">");
      skip_ws();
      expect('>');
    }
    s_.scope.resize(scope_mark);
    return el;
  }

  template <typename T>
  T* copy_out(const std::vector<T>& items, std::uint32_t& count) {
    count = static_cast<std::uint32_t>(items.size());
    if (items.empty()) return nullptr;
    T* out = arena_.make_array<T>(items.size());
    std::copy(items.begin(), items.end(), out);
    return out;
  }

  const std::string_view* resolve(std::string_view prefix) const {
    for (auto it = s_.scope.rbegin(); it != s_.scope.rend(); ++it) {
      if (it->first == prefix) return &it->second;
    }
    return nullptr;
  }

  std::string_view resolve_element_ns(std::string_view prefix) {
    const std::string_view* uri = resolve(prefix);
    if (!uri) {
      if (prefix.empty()) return {};
      fail("unbound namespace prefix '" + std::string(prefix) + "'");
    }
    return *uri;  // empty = undeclared default ns = no namespace
  }

  std::string_view resolve_attr_ns(std::string_view prefix) {
    if (prefix.empty()) return {};  // unprefixed attrs: no namespace
    const std::string_view* uri = resolve(prefix);
    if (!uri || uri->empty())
      fail("unbound namespace prefix '" + std::string(prefix) + "'");
    return *uri;
  }

  // Reads children up to the parent's closing tag, leaving the position on
  // its "</".
  void parse_content(ArenaNode& parent) {
    ArenaNode* tail = nullptr;
    auto append = [&](ArenaNode* n) {
      (tail ? tail->next : parent.first_child) = n;
      tail = n;
    };

    for (;;) {
      // A text run up to the next markup: a buffer view when plain, an
      // arena copy when it held entity references.
      size_t start = pos_;
      size_t lt = find_byte('<', pos_, in_.size());
      size_t amp = find_byte('&', pos_, lt);
      if (amp == lt) {
        pos_ = lt;
        if (lt > start) append(make_chars(NodeKind::kText, in_.substr(start, lt - start)));
      } else {
        s_.decoded.assign(in_.substr(start, amp - start));
        while (amp < lt) {
          pos_ = amp + 1;
          read_entity(s_.decoded);
          // Entity names hold no '<', so `lt` still ends the run.
          amp = find_byte('&', pos_, lt);
          s_.decoded.append(in_.substr(pos_, amp - pos_));
        }
        pos_ = lt;
        append(make_chars(NodeKind::kText, arena_.copy(s_.decoded)));
      }

      if (at_end()) fail("unexpected end of input inside element");
      // On a '<': the byte after it tells the markup kinds apart.
      char kind = pos_ + 1 < in_.size() ? in_[pos_ + 1] : '\0';
      if (kind == '/') return;
      if (kind == '!' && starts_with("<!--")) {
        size_t body = pos_ + 4;
        skip_comment();
        append(make_chars(NodeKind::kComment, in_.substr(body, pos_ - 3 - body)));
      } else if (kind == '!' && starts_with("<![CDATA[")) {
        size_t body = pos_ + 9;
        pos_ = body;
        skip_past("]]>", "unterminated CDATA section");
        append(make_chars(NodeKind::kCData, in_.substr(body, pos_ - 3 - body)));
      } else if (kind == '?') {
        skip_pi();
      } else {
        append(parse_element());
      }
    }
  }

  static constexpr int kMaxDepth = 256;

  std::string_view in_;
  Arena& arena_;
  std::size_t& nodes_;
  Scratch& s_;
  size_t pos_ = 0;
  int depth_ = 0;
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

// Arena bytes reserved per input byte in a document's first block. SOAP
// envelopes need about 2.3 (a node per element or text run, declarations,
// attributes); markup-dense input spills into further blocks.
constexpr std::size_t kArenaBytesPerInputByte = 3;

ArenaDocument::ArenaDocument(std::size_t input_bytes)
    : arena_(input_bytes * (1 + kArenaBytesPerInputByte) + 256) {}

ArenaDocument ArenaDocument::parse(std::string_view input) {
  ArenaDocument doc(input.size());
  doc.buffer_ = doc.arena_.copy(input);
  doc.root_ = PullParser(doc.buffer_, doc.arena_, doc.nodes_).parse_document();
  return doc;
}

std::unique_ptr<Element> parse_element(std::string_view input) {
  // The view tree only lives until to_dom has copied it out, so it can point
  // straight into the caller's buffer.
  Arena arena(input.size() * kArenaBytesPerInputByte + 256);
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
