#include "soap/envelope.hpp"

#include <algorithm>

#include "soap/namespaces.hpp"
#include "xml/canonical.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace gs::soap {

namespace {

xml::QName env_name(const char* local) { return {ns::kEnvelope, local}; }
xml::QName wsa_name(const char* local) { return {ns::kAddressing, local}; }

void append_text_header(xml::Element& header, const char* local,
                        std::string& value) {
  if (!value.empty()) header.append_element(wsa_name(local)).set_text(std::move(value));
}

void write_text_header(std::string& out, std::string_view local,
                       const std::string& value) {
  if (value.empty()) return;
  out += "<wsa:";
  out += local;
  out += '>';
  xml::escape_into(out, value);
  out += "</wsa:";
  out += local;
  out += '>';
}

}  // namespace

Envelope& Envelope::operator=(const Envelope& other) {
  if (this == &other) return *this;
  parts_ = Parts{};
  root_.reset();
  view_.reset();
  payload_dom_.reset();
  header_cache_.clear();
  signed_cache_.reset();
  retired_.clear();
  if (other.view_) {
    // Share the immutable wire view; this copy materializes its own DOM
    // lazily if and when it needs one.
    view_ = other.view_;
  } else {
    root_ = other.dom().clone_element();
  }
  return *this;
}

std::unique_ptr<xml::Element> Envelope::build_dom() const {
  auto root = std::make_unique<xml::Element>(env_name("Envelope"));
  root->declare_prefix("soap", ns::kEnvelope);
  root->declare_prefix("wsa", ns::kAddressing);
  xml::Element& header = root->append_element(env_name("Header"));
  append_text_header(header, "To", parts_.to);
  append_text_header(header, "Action", parts_.action);
  append_text_header(header, "MessageID", parts_.message_id);
  append_text_header(header, "RelatesTo", parts_.relates_to);
  for (auto& h : parts_.headers) header.append(std::move(h));
  xml::Element& body = root->append_element(env_name("Body"));
  for (auto& p : parts_.payload) body.append(std::move(p));
  if (parts_.payload_octets) body.append(xml::parse_element(*parts_.payload_octets));
  parts_ = Parts{};
  return root;
}

void Envelope::write_into(std::string& out) const {
  if (!in_parts()) {
    xml::write_into(out, *root_);
    return;
  }
  // The frame build_dom's root declares: the writer pass below starts with
  // these bindings in scope and no generated prefixes, as it would inside
  // xml::write of that tree.
  static const xml::PrefixBindings kFrameBindings = {
      {"soap", ns::kEnvelope}, {"wsa", ns::kAddressing}};
  static const std::string kOpen = std::string("<soap:Envelope xmlns:soap=\"") +
                                   ns::kEnvelope + "\" xmlns:wsa=\"" +
                                   ns::kAddressing + "\">";
  out = kOpen;
  int gen_counter = 0;
  if (parts_.has_header()) {
    out += "<soap:Header>";
    write_text_header(out, "To", parts_.to);
    write_text_header(out, "Action", parts_.action);
    write_text_header(out, "MessageID", parts_.message_id);
    write_text_header(out, "RelatesTo", parts_.relates_to);
    xml::write_fragment(out, parts_.headers, kFrameBindings, gen_counter);
    out += "</soap:Header>";
  } else {
    out += "<soap:Header/>";
  }
  if (parts_.payload.empty() && !parts_.payload_octets) {
    out += "<soap:Body/>";
  } else {
    out += "<soap:Body>";
    xml::write_fragment(out, parts_.payload, kFrameBindings, gen_counter);
    if (parts_.payload_octets) out += *parts_.payload_octets;
    out += "</soap:Body>";
  }
  out += "</soap:Envelope>";
}

xml::Element& Envelope::mut() {
  if (!root_) root_ = view_ ? view_->to_dom() : build_dom();
  view_.reset();
  // Previously handed-out subtree pointers must survive the transition.
  if (payload_dom_) retired_.push_back(std::move(payload_dom_));
  for (auto& h : header_cache_) retired_.push_back(std::move(h));
  header_cache_.clear();
  signed_cache_.reset();
  return *root_;
}

const xml::Element& Envelope::dom() const {
  // A view stays: it is still the wire form.
  if (!root_) root_ = view_ ? view_->to_dom() : build_dom();
  return *root_;
}

const xml::ArenaNode* Envelope::view_header() const {
  if (!view_ || root_) return nullptr;
  return view_->root().child(ns::kEnvelope, "Header");
}

const xml::ArenaNode* Envelope::view_body() const {
  if (!view_ || root_) return nullptr;
  return view_->root().child(ns::kEnvelope, "Body");
}

xml::Element& Envelope::header() {
  xml::Element& r = mut();
  xml::Element* h = r.child(env_name("Header"));
  if (!h) h = &r.append_element(env_name("Header"));
  return *h;
}

const xml::Element& Envelope::header() const {
  // Materializes a DOM for the read but keeps the wire backing —
  // only mutating accessors invalidate it. A missing Header is created on
  // the materialized tree (legacy behavior for header-less documents).
  xml::Element& r = const_cast<xml::Element&>(dom());
  xml::Element* h = r.child(env_name("Header"));
  if (!h) h = &r.append_element(env_name("Header"));
  return *h;
}

xml::Element& Envelope::body() {
  xml::Element& r = mut();
  xml::Element* b = r.child(env_name("Body"));
  if (!b) b = &r.append_element(env_name("Body"));
  return *b;
}

const xml::Element& Envelope::body() const {
  xml::Element& r = const_cast<xml::Element&>(dom());
  xml::Element* b = r.child(env_name("Body"));
  if (!b) b = &r.append_element(env_name("Body"));
  return *b;
}

const xml::Element* Envelope::payload() const {
  if (const xml::ArenaNode* b = view_body()) {
    const xml::ArenaNode* p = b->first_element();
    if (!p) return nullptr;
    if (!payload_dom_) payload_dom_ = xml::ArenaDocument::to_dom(*p);
    return payload_dom_.get();
  }
  if (in_parts() && !parts_.payload_octets) {
    return parts_.payload.empty() ? nullptr : parts_.payload.front().get();
  }
  auto kids = body().child_elements();
  return kids.empty() ? nullptr : kids.front();
}

const xml::ArenaNode* Envelope::payload_view() const {
  if (!view_) {
    view_ = std::make_shared<const xml::ArenaDocument>(
        xml::ArenaDocument::parse(to_xml()));
    if (!root_) {
      // Built in-process: the view replaces the parts, and elements handed
      // out stay alive.
      for (auto& h : parts_.headers) retired_.push_back(std::move(h));
      for (auto& p : parts_.payload) retired_.push_back(std::move(p));
      parts_ = Parts{};
    }
  }
  const xml::ArenaNode* b = view_->root().child(ns::kEnvelope, "Body");
  return b ? b->first_element() : nullptr;
}

xml::Element* Envelope::payload() {
  if (in_parts() && !parts_.payload_octets) {
    return parts_.payload.empty() ? nullptr : parts_.payload.front().get();
  }
  auto kids = body().child_elements();
  return kids.empty() ? nullptr : kids.front();
}

xml::Element& Envelope::add_payload(xml::QName name) {
  auto el = std::make_unique<xml::Element>(std::move(name));
  xml::Element& added = *el;
  add_payload(std::move(el));
  return added;
}

void Envelope::add_payload(std::unique_ptr<xml::Element> el) {
  if (in_parts() && !parts_.payload_octets) {
    parts_.payload.push_back(std::move(el));
  } else {
    body().append(std::move(el));
  }
}

void Envelope::add_payload_octets(std::shared_ptr<const std::string> octets) {
  if (in_parts() && !parts_.payload_octets) {
    parts_.payload_octets = std::move(octets);
  } else {
    body().append(xml::parse_element(*octets));
  }
}

void Envelope::write_addressing(MessageInfo info) {
  if (in_parts() && !parts_.has_header()) {
    parts_.to = std::move(info.to);
    parts_.action = std::move(info.action);
    parts_.message_id = std::move(info.message_id);
    parts_.relates_to = std::move(info.relates_to);
    if (!info.reply_to.empty())
      parts_.headers.push_back(info.reply_to.to_xml(wsa_name("ReplyTo")));
    for (auto& rh : info.reference_headers) parts_.headers.push_back(std::move(rh));
    return;
  }
  // Headers already present come first: append after them in the tree.
  xml::Element& h = header();
  append_text_header(h, "To", info.to);
  append_text_header(h, "Action", info.action);
  append_text_header(h, "MessageID", info.message_id);
  append_text_header(h, "RelatesTo", info.relates_to);
  if (!info.reply_to.empty()) h.append(info.reply_to.to_xml(wsa_name("ReplyTo")));
  for (auto& rh : info.reference_headers) h.append(std::move(rh));
}

MessageInfo Envelope::read_addressing() const {
  MessageInfo info;
  if (const xml::ArenaNode* h = view_header()) {
    // One pass over the header view: the four text headers bind to their
    // first occurrence (Element::child semantics); ReplyTo materializes only
    // its own subtree, and reference headers are read in place.
    bool have_to = false, have_action = false, have_mid = false,
         have_rel = false, have_reply = false;
    for (const xml::ArenaNode* e = h->first_child; e; e = e->next) {
      if (e->kind != xml::NodeKind::kElement) continue;
      if (e->ns == ns::kAddressing) {
        if (!have_to && e->local == "To") {
          info.to = e->text();
          have_to = true;
        } else if (!have_action && e->local == "Action") {
          info.action = e->text();
          have_action = true;
        } else if (!have_mid && e->local == "MessageID") {
          info.message_id = e->text();
          have_mid = true;
        } else if (!have_rel && e->local == "RelatesTo") {
          info.relates_to = e->text();
          have_rel = true;
        } else if (!have_reply && e->local == "ReplyTo") {
          info.reply_to =
              EndpointReference::from_xml(*xml::ArenaDocument::to_dom(*e));
          have_reply = true;
        }
      }
    }
    info.received_header = h;
    info.received = view_;
    return info;
  }
  const xml::Element& h = header();
  if (const auto* e = h.child(wsa_name("To"))) info.to = e->text();
  if (const auto* e = h.child(wsa_name("Action"))) info.action = e->text();
  if (const auto* e = h.child(wsa_name("MessageID"))) info.message_id = e->text();
  if (const auto* e = h.child(wsa_name("RelatesTo"))) info.relates_to = e->text();
  if (const auto* e = h.child(wsa_name("ReplyTo")))
    info.reply_to = EndpointReference::from_xml(*e);
  for (const auto* e : h.child_elements()) {
    if (e->name().ns() == ns::kAddressing || e->name().ns() == ns::kSecurity ||
        e->name().ns() == ns::kDsig) {
      continue;  // addressing and security headers are not reference headers
    }
    info.reference_headers.push_back(e->clone_element());
  }
  return info;
}

const xml::Element* Envelope::header_child(const xml::QName& name) const {
  if (const xml::ArenaNode* h = view_header()) {
    const xml::ArenaNode* e = h->child(name.ns(), name.local());
    if (!e) return nullptr;
    for (const auto& cached : header_cache_) {
      if (cached->name() == name) return cached.get();
    }
    header_cache_.push_back(xml::ArenaDocument::to_dom(*e));
    return header_cache_.back().get();
  }
  return header().child(name);
}

std::optional<std::string> Envelope::header_child_attr(
    const xml::QName& name, std::string_view attr) const {
  if (const xml::ArenaNode* h = view_header()) {
    const xml::ArenaNode* e = h->child(name.ns(), name.local());
    if (!e) return std::nullopt;
    if (auto v = e->attr_local(attr)) return std::string(*v);
    return std::nullopt;
  }
  const xml::Element* e = header().child(name);
  if (!e) return std::nullopt;
  return e->attr(attr);
}

void Envelope::replace_header(std::unique_ptr<xml::Element> el) {
  if (in_parts() && el->name().ns() != ns::kAddressing) {
    auto& headers = parts_.headers;
    auto old = std::find_if(headers.begin(), headers.end(),
                            [&](const auto& h) { return h->name() == el->name(); });
    if (old != headers.end()) headers.erase(old);
    headers.push_back(std::move(el));
    return;
  }
  xml::Element& header = this->header();
  if (const xml::Element* old = header.child(el->name())) header.remove_child(*old);
  header.append(std::move(el));
}

bool Envelope::is_fault() const {
  // An empty Body, or stored octets (never a fault).
  if (in_parts() && parts_.payload.empty()) return false;
  if (const xml::ArenaNode* b = view_body()) {
    const xml::ArenaNode* p = b->first_element();
    return p && p->ns == ns::kEnvelope && p->local == "Fault";
  }
  const xml::Element* p = payload();
  return p && p->name() == env_name("Fault");
}

Fault Envelope::fault() const {
  if (!is_fault()) throw std::runtime_error("envelope is not a fault");
  const xml::Element& f = *payload();
  Fault out;
  if (const auto* code = f.child(env_name("Code"))) {
    if (const auto* value = code->child(env_name("Value"))) {
      std::string v = value->text();
      // Strip any prefix; we only keep the local code name.
      if (auto colon = v.find(':'); colon != std::string::npos) v = v.substr(colon + 1);
      out.code = v;
    }
    if (const auto* sub = code->child(env_name("Subcode"))) {
      if (const auto* value = sub->child(env_name("Value"))) out.subcode = value->text();
    }
  }
  if (const auto* reason = f.child(env_name("Reason"))) {
    if (const auto* text = reason->child(env_name("Text"))) out.reason = text->text();
  }
  if (const auto* detail = f.child(env_name("Detail"))) out.detail = detail->text();
  return out;
}

Envelope Envelope::make_fault(const Fault& f) {
  Envelope env;
  xml::Element& fault = env.add_payload(env_name("Fault"));
  xml::Element& code = fault.append_element(env_name("Code"));
  code.append_element(env_name("Value")).set_text("soap:" + f.code);
  if (!f.subcode.empty()) {
    code.append_element(env_name("Subcode"))
        .append_element(env_name("Value"))
        .set_text(f.subcode);
  }
  fault.append_element(env_name("Reason"))
      .append_element(env_name("Text"))
      .set_text(f.reason);
  if (!f.detail.empty()) fault.append_element(env_name("Detail")).set_text(f.detail);
  return env;
}

void Envelope::throw_if_fault() const {
  if (is_fault()) throw SoapFault(fault());
}

std::string Envelope::to_xml() const {
  if (view_ && !root_) return std::string(view_->buffer());
  std::string out;
  write_into(out);
  return out;
}

void Envelope::wire_chain(common::BufferChain& chain,
                          std::shared_ptr<std::string>* scratch) const {
  if (view_ && !root_) {
    // Alias the document so the buffer outlives this envelope.
    chain.append_shared(
        std::shared_ptr<const void>(view_, view_->buffer().data()),
        view_->buffer());
    return;
  }
  if (!scratch) {
    chain.append(to_xml());
    return;
  }
  std::shared_ptr<std::string>& buf = *scratch;
  // Reuse the buffer's capacity unless a previously returned chain still
  // references it.
  if (!buf || buf.use_count() > 1) buf = std::make_shared<std::string>();
  write_into(*buf);
  chain.append_shared(buf, *buf);
}

const std::string& Envelope::canonical_signed_content() const {
  if (signed_cache_) return *signed_cache_;
  static constexpr const char* kSignedHeaders[] = {"To", "Action", "MessageID",
                                                   "RelatesTo"};
  auto out = std::make_unique<std::string>();
  if (view_ && !root_) {
    // Canonicalize straight off the arena view — no DOM nodes.
    if (const xml::ArenaNode* b = view_body()) *out += xml::canonicalize_view(*b);
    if (const xml::ArenaNode* h = view_header()) {
      for (const char* name : kSignedHeaders) {
        if (const xml::ArenaNode* e = h->child(ns::kAddressing, name)) {
          *out += xml::canonicalize_view(*e);
        }
      }
    }
  } else {
    *out = xml::canonicalize(body());
    for (const char* name : kSignedHeaders) {
      if (const xml::Element* h = header().child(wsa_name(name))) {
        *out += xml::canonicalize(*h);
      }
    }
  }
  signed_cache_ = std::move(out);
  return *signed_cache_;
}

Envelope Envelope::from_xml(std::string_view wire) {
  auto doc = std::make_shared<const xml::ArenaDocument>(
      xml::ArenaDocument::parse(wire));
  const xml::ArenaNode& root = doc->root();
  if (root.ns != ns::kEnvelope || root.local != "Envelope") {
    throw std::runtime_error("not a SOAP envelope: " + root.clark());
  }
  return Envelope(std::move(doc));
}

}  // namespace gs::soap
