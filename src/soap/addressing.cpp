#include "soap/addressing.hpp"

#include <stdexcept>

#include "soap/namespaces.hpp"

namespace gs::soap {

EndpointReference& EndpointReference::operator=(const EndpointReference& other) {
  if (this == &other) return *this;
  address_ = other.address_;
  props_.clear();
  props_.reserve(other.props_.size());
  for (const auto& p : other.props_) props_.push_back(p->clone_element());
  return *this;
}

void EndpointReference::add_reference_property(std::unique_ptr<xml::Element> prop) {
  props_.push_back(std::move(prop));
}

void EndpointReference::add_reference_property(xml::QName name, std::string value) {
  auto el = std::make_unique<xml::Element>(std::move(name));
  el->set_text(std::move(value));
  props_.push_back(std::move(el));
}

std::optional<std::string> EndpointReference::reference_property(
    const xml::QName& name) const {
  for (const auto& p : props_) {
    if (p->name() == name) return p->text();
  }
  return std::nullopt;
}

std::unique_ptr<xml::Element> EndpointReference::to_xml(
    const xml::QName& wrapper) const {
  auto el = std::make_unique<xml::Element>(wrapper);
  el->append_element(ns::kAddressing, "Address").set_text(address_);
  if (!props_.empty()) {
    auto& rp = el->append_element(ns::kAddressing, "ReferenceProperties");
    for (const auto& p : props_) rp.append(p->clone());
  }
  return el;
}

EndpointReference EndpointReference::from_xml(const xml::Element& el) {
  const xml::Element* addr = el.child(xml::QName(ns::kAddressing, "Address"));
  if (!addr) throw std::runtime_error("EndpointReference is missing wsa:Address");
  EndpointReference epr(addr->text());
  if (const xml::Element* rp =
          el.child(xml::QName(ns::kAddressing, "ReferenceProperties"))) {
    for (const auto* prop : rp->child_elements()) {
      epr.add_reference_property(prop->clone_element());
    }
  }
  return epr;
}

bool operator==(const EndpointReference& a, const EndpointReference& b) {
  if (a.address_ != b.address_) return false;
  if (a.props_.size() != b.props_.size()) return false;
  for (size_t i = 0; i < a.props_.size(); ++i) {
    if (!xml::Element::deep_equal(*a.props_[i], *b.props_[i])) return false;
  }
  return true;
}

MessageInfo& MessageInfo::operator=(const MessageInfo& other) {
  if (this == &other) return *this;
  to = other.to;
  action = other.action;
  message_id = other.message_id;
  relates_to = other.relates_to;
  reply_to = other.reply_to;
  reference_headers.clear();
  reference_headers.reserve(other.reference_headers.size());
  for (const auto& h : other.reference_headers) {
    reference_headers.push_back(h->clone_element());
  }
  received_header = other.received_header;
  received = other.received;
  return *this;
}

void MessageInfo::target(const EndpointReference& epr) {
  to = epr.address();
  received_header = nullptr;
  received.reset();
  reference_headers.clear();
  for (const auto& p : epr.reference_properties()) {
    reference_headers.push_back(p->clone_element());
  }
}

std::optional<std::string> MessageInfo::reference_header(
    const xml::QName& name) const {
  for (const auto& h : reference_headers) {
    if (h->name() == name) return h->text();
  }
  // Addressing and security headers are not reference headers.
  if (received_header && name.ns() != ns::kAddressing &&
      name.ns() != ns::kSecurity && name.ns() != ns::kDsig) {
    if (const xml::ArenaNode* h = received_header->child(name.ns(), name.local()))
      return h->text();
  }
  return std::nullopt;
}

}  // namespace gs::soap
