#include "soap/envelope.hpp"

#include <algorithm>

#include "soap/namespaces.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace gs::soap {

namespace {

xml::QName env_name(const char* local) { return {ns::kEnvelope, local}; }
xml::QName wsa_name(const char* local) { return {ns::kAddressing, local}; }

std::unique_ptr<xml::Element> text_element(xml::QName name, std::string text) {
  auto el = std::make_unique<xml::Element>(std::move(name));
  el->set_text(std::move(text));
  return el;
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

std::vector<std::unique_ptr<xml::Element>> clone_all(
    const std::vector<std::unique_ptr<xml::Element>>& elements) {
  std::vector<std::unique_ptr<xml::Element>> out;
  out.reserve(elements.size());
  for (const auto& el : elements) out.push_back(el->clone_element());
  return out;
}

/// Materializes each child element of `parent` (when present) into `out`.
void thaw_children(const xml::ArenaNode* parent,
                   std::vector<std::unique_ptr<xml::Element>>& out) {
  if (!parent) return;
  for (const xml::ArenaNode* e = parent->first_child; e; e = e->next) {
    if (e->kind == xml::NodeKind::kElement)
      out.push_back(xml::ArenaDocument::to_dom(*e));
  }
}

}  // namespace

std::string* Envelope::Parts::text_header(const xml::QName& name) {
  if (name.ns() != ns::kAddressing) return nullptr;
  std::string* text = name.local() == "To"          ? &to
                      : name.local() == "Action"    ? &action
                      : name.local() == "MessageID" ? &message_id
                      : name.local() == "RelatesTo" ? &relates_to
                                                    : nullptr;
  return text && !text->empty() ? text : nullptr;
}

const xml::Element* Envelope::Parts::header(const xml::QName& name) const {
  for (const auto& h : headers) {
    if (h->name() == name) return h.get();
  }
  return nullptr;
}

Envelope& Envelope::operator=(const Envelope& other) {
  if (this == &other) return *this;
  Envelope copy;
  copy.view_ = other.view_;  // immutable: shared
  const Parts& from = other.parts_;
  copy.parts_ = Parts{from.to,
                      from.action,
                      from.message_id,
                      from.relates_to,
                      clone_all(from.headers),
                      clone_all(from.payload),
                      from.payload_octets};
  return *this = std::move(copy);
}

void Envelope::write_into(std::string& out) const {
  // The frame declares soap and wsa: the writer pass below starts with
  // these bindings in scope and no generated prefixes, as it would inside
  // xml::write of the whole envelope.
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

Envelope::Parts& Envelope::mut() {
  if (view_) {
    thaw_children(view_header(), parts_.headers);
    thaw_children(view_body(), parts_.payload);
    view_.reset();
  }
  // Previously handed-out subtree pointers must survive the transition.
  if (payload_dom_) retired_.push_back(std::move(payload_dom_));
  for (auto& h : header_cache_) retired_.push_back(std::move(h));
  header_cache_.clear();
  signed_cache_.reset();
  return parts_;
}

Envelope::Parts& Envelope::mut_payload() {
  Parts& parts = mut();
  if (parts.payload_octets) {
    parts.payload.push_back(xml::parse_element(*parts.payload_octets));
    parts.payload_octets.reset();
  }
  return parts;
}

const xml::ArenaNode* Envelope::view_header() const {
  return view_ ? view_->root().child(ns::kEnvelope, "Header") : nullptr;
}

const xml::ArenaNode* Envelope::view_body() const {
  return view_ ? view_->root().child(ns::kEnvelope, "Body") : nullptr;
}

const xml::Element* Envelope::payload() const {
  if (!view_ && !parts_.payload.empty()) return parts_.payload.front().get();
  if (!payload_dom_) {
    if (const xml::ArenaNode* b = view_body()) {
      if (const xml::ArenaNode* p = b->first_element())
        payload_dom_ = xml::ArenaDocument::to_dom(*p);
    } else if (!view_ && parts_.payload_octets) {
      payload_dom_ = xml::parse_element(*parts_.payload_octets);
    }
  }
  return payload_dom_.get();
}

xml::Element* Envelope::payload() {
  Parts& parts = mut_payload();
  return parts.payload.empty() ? nullptr : parts.payload.front().get();
}

const xml::ArenaNode* Envelope::payload_view() const {
  if (!view_) {
    view_ = std::make_shared<const xml::ArenaDocument>(
        xml::ArenaDocument::parse(to_xml()));
    // The view replaces the parts; elements handed out stay alive.
    for (auto& h : parts_.headers) retired_.push_back(std::move(h));
    for (auto& p : parts_.payload) retired_.push_back(std::move(p));
    parts_ = Parts{};
  }
  const xml::ArenaNode* b = view_body();
  return b ? b->first_element() : nullptr;
}

xml::Element& Envelope::add_payload(xml::QName name) {
  auto el = std::make_unique<xml::Element>(std::move(name));
  xml::Element& added = *el;
  add_payload(std::move(el));
  return added;
}

void Envelope::add_payload(std::unique_ptr<xml::Element> el) {
  mut_payload().payload.push_back(std::move(el));
}

void Envelope::add_payload_octets(std::shared_ptr<const std::string> octets) {
  mut_payload().payload_octets = std::move(octets);
}

void Envelope::write_addressing(MessageInfo info) {
  Parts& parts = mut();
  if (!parts.has_header()) {
    parts.to = std::move(info.to);
    parts.action = std::move(info.action);
    parts.message_id = std::move(info.message_id);
    parts.relates_to = std::move(info.relates_to);
  } else {
    // Headers already present come first: the text headers follow them.
    auto append = [&](const char* local, std::string& text) {
      if (!text.empty())
        parts.headers.push_back(text_element(wsa_name(local), std::move(text)));
    };
    append("To", info.to);
    append("Action", info.action);
    append("MessageID", info.message_id);
    append("RelatesTo", info.relates_to);
  }
  if (!info.reply_to.empty())
    parts.headers.push_back(info.reply_to.to_xml(wsa_name("ReplyTo")));
  for (auto& rh : info.reference_headers) parts.headers.push_back(std::move(rh));
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
  if (view_) return info;  // a received envelope without a Header
  auto text = [&](const char* local) {
    xml::QName name = wsa_name(local);
    if (const std::string* t = parts_.text_header(name)) return *t;
    const xml::Element* e = parts_.header(name);
    return e ? e->text() : std::string();
  };
  info.to = text("To");
  info.action = text("Action");
  info.message_id = text("MessageID");
  info.relates_to = text("RelatesTo");
  if (const xml::Element* e = parts_.header(wsa_name("ReplyTo")))
    info.reply_to = EndpointReference::from_xml(*e);
  for (const auto& e : parts_.headers) {
    const std::string& ns = e->name().ns();
    if (ns == ns::kAddressing || ns == ns::kSecurity || ns == ns::kDsig) {
      continue;  // addressing and security headers are not reference headers
    }
    info.reference_headers.push_back(e->clone_element());
  }
  return info;
}

const xml::Element* Envelope::header_child(const xml::QName& name) const {
  for (const auto& cached : header_cache_) {
    if (cached->name() == name) return cached.get();
  }
  if (view_) {
    const xml::ArenaNode* h = view_header();
    const xml::ArenaNode* e = h ? h->child(name.ns(), name.local()) : nullptr;
    if (!e) return nullptr;
    header_cache_.push_back(xml::ArenaDocument::to_dom(*e));
  } else if (const std::string* text = parts_.text_header(name)) {
    header_cache_.push_back(text_element(name, *text));
  } else {
    return parts_.header(name);
  }
  return header_cache_.back().get();
}

std::optional<std::string> Envelope::header_child_attr(
    const xml::QName& name, std::string_view attr) const {
  if (view_) {
    const xml::ArenaNode* h = view_header();
    const xml::ArenaNode* e = h ? h->child(name.ns(), name.local()) : nullptr;
    if (!e) return std::nullopt;
    if (auto v = e->attr_local(attr)) return std::string(*v);
    return std::nullopt;
  }
  if (parts_.text_header(name)) return std::nullopt;  // text has no attributes
  const xml::Element* e = parts_.header(name);
  if (!e) return std::nullopt;
  return e->attr(attr);
}

void Envelope::replace_header(std::unique_ptr<xml::Element> el) {
  Parts& parts = mut();
  // The first header with this name, in document order: the text headers
  // come first.
  if (std::string* text = parts.text_header(el->name())) {
    text->clear();
  } else {
    auto& headers = parts.headers;
    auto old = std::find_if(headers.begin(), headers.end(),
                            [&](const auto& h) { return h->name() == el->name(); });
    if (old != headers.end()) headers.erase(old);
  }
  parts.headers.push_back(std::move(el));
}

bool Envelope::is_fault() const {
  if (const xml::ArenaNode* b = view_body()) {
    const xml::ArenaNode* p = b->first_element();
    return p && p->ns == ns::kEnvelope && p->local == "Fault";
  }
  // Stored octets are never a fault.
  return !view_ && !parts_.payload.empty() &&
         parts_.payload.front()->name() == env_name("Fault");
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
  if (view_) return std::string(view_->buffer());
  std::string out;
  write_into(out);
  return out;
}

void Envelope::wire_chain(common::BufferChain& chain,
                          std::shared_ptr<std::string>* scratch) const {
  if (view_) {
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
  // Parts are canonicalized from their wire form, so both states sign
  // exactly what the receiver's view canonicalizes.
  std::optional<xml::ArenaDocument> written;
  if (!view_) written.emplace(xml::ArenaDocument::parse(to_xml()));
  const xml::ArenaNode& root = view_ ? view_->root() : written->root();
  auto out = std::make_unique<std::string>();
  if (const xml::ArenaNode* b = root.child(ns::kEnvelope, "Body")) {
    *out += xml::canonicalize_view(*b);
  }
  if (const xml::ArenaNode* h = root.child(ns::kEnvelope, "Header")) {
    for (const char* name : kSignedHeaders) {
      if (const xml::ArenaNode* e = h->child(ns::kAddressing, name)) {
        *out += xml::canonicalize_view(*e);
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
