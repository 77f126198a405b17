#include "wsrf/client.hpp"

namespace gs::wsrf {

namespace {

xml::QName rp(const char* local) { return {soap::ns::kWsrfRp, local}; }
xml::QName rl(const char* local) { return {soap::ns::kWsrfRl, local}; }

std::unique_ptr<xml::Element> name_element(xml::QName wrapper,
                                           const xml::QName& prop) {
  auto el = std::make_unique<xml::Element>(std::move(wrapper));
  if (!prop.ns().empty()) el->set_attr("ns", prop.ns());
  el->set_text(prop.local());
  return el;
}

// The payload's child elements, materialized straight from the response's
// wire view.
std::vector<std::unique_ptr<xml::Element>> payload_children(
    const soap::Envelope& response) {
  std::vector<std::unique_ptr<xml::Element>> out;
  if (const xml::ArenaNode* payload = response.payload_view()) {
    for (const xml::ArenaNode* c = payload->first_child; c; c = c->next) {
      if (c->kind == xml::NodeKind::kElement) {
        out.push_back(xml::ArenaDocument::to_dom(*c));
      }
    }
  }
  return out;
}

}  // namespace

std::vector<std::unique_ptr<xml::Element>> WsResourceProxy::get_property(
    const xml::QName& name) {
  const soap::Envelope response = invoke(
      actions::kGetResourceProperty, name_element(rp("GetResourceProperty"), name));
  return payload_children(response);
}

std::string WsResourceProxy::get_property_text(const xml::QName& name) {
  const soap::Envelope response = invoke(
      actions::kGetResourceProperty, name_element(rp("GetResourceProperty"), name));
  // Read in place: the scalar case needs no DOM.
  const xml::ArenaNode* payload = response.payload_view();
  const xml::ArenaNode* value = payload ? payload->first_element() : nullptr;
  return value ? value->text() : std::string();
}

std::vector<std::unique_ptr<xml::Element>> WsResourceProxy::get_properties(
    const std::vector<xml::QName>& names) {
  auto request =
      std::make_unique<xml::Element>(rp("GetMultipleResourceProperties"));
  for (const auto& name : names) {
    request->append(name_element(rp("ResourceProperty"), name));
  }
  const soap::Envelope response =
      invoke(actions::kGetMultipleResourceProperties, std::move(request));
  return payload_children(response);
}

std::unique_ptr<xml::Element> WsResourceProxy::get_property_document() {
  const soap::Envelope response =
      invoke(actions::kGetResourcePropertyDocument,
             std::make_unique<xml::Element>(rp("GetResourcePropertyDocument")));
  auto children = payload_children(response);
  return children.empty() ? nullptr : std::move(children.front());
}

void WsResourceProxy::update_property(
    const xml::QName& name, std::vector<std::unique_ptr<xml::Element>> values) {
  (void)name;
  auto request = std::make_unique<xml::Element>(rp("SetResourceProperties"));
  xml::Element& update = request->append_element(rp("Update"));
  for (auto& v : values) update.append(std::move(v));
  invoke(actions::kSetResourceProperties, std::move(request));
}

void WsResourceProxy::update_property_text(const xml::QName& name,
                                           const std::string& text) {
  auto value = std::make_unique<xml::Element>(name);
  value->set_text(text);
  std::vector<std::unique_ptr<xml::Element>> values;
  values.push_back(std::move(value));
  update_property(name, std::move(values));
}

void WsResourceProxy::insert_property(std::unique_ptr<xml::Element> value) {
  auto request = std::make_unique<xml::Element>(rp("SetResourceProperties"));
  request->append_element(rp("Insert")).append(std::move(value));
  invoke(actions::kSetResourceProperties, std::move(request));
}

void WsResourceProxy::delete_property(const xml::QName& name) {
  auto request = std::make_unique<xml::Element>(rp("SetResourceProperties"));
  xml::Element& del = request->append_element(rp("Delete"));
  del.set_attr("ns", name.ns());
  del.set_attr("local", name.local());
  invoke(actions::kSetResourceProperties, std::move(request));
}

std::vector<std::unique_ptr<xml::Element>> WsResourceProxy::query(
    const std::string& xpath) {
  auto request = std::make_unique<xml::Element>(rp("QueryResourceProperties"));
  xml::Element& expr = request->append_element(rp("QueryExpression"));
  expr.set_attr("Dialect", kXPathDialect);
  expr.set_text(xpath);
  const soap::Envelope response =
      invoke(actions::kQueryResourceProperties, std::move(request));
  return payload_children(response);
}

std::vector<WsResourceProxy::ResourceMatch> WsResourceProxy::query_resources(
    const std::string& xpath) {
  auto request = std::make_unique<xml::Element>(
      xml::QName("http://gridstacks.dev/wsrf", "QueryResources"));
  xml::Element& expr = request->append_element(rp("QueryExpression"));
  expr.set_attr("Dialect", kXPathDialect);
  expr.set_text(xpath);
  const soap::Envelope response = invoke(actions::kQueryResources, std::move(request));
  std::vector<ResourceMatch> out;
  const xml::Element* payload = response.payload();
  if (!payload) return out;
  xml::QName match_qn("http://gridstacks.dev/wsrf", "Match");
  xml::QName epr_qn("http://gridstacks.dev/wsrf", "ResourceEPR");
  for (const xml::Element* item : payload->children_named(match_qn)) {
    ResourceMatch match;
    if (const xml::Element* epr = item->child(epr_qn)) {
      match.epr = soap::EndpointReference::from_xml(*epr);
    }
    for (const xml::Element* child : item->child_elements()) {
      if (child->name() != epr_qn) {
        match.state = child->clone_element();
        break;
      }
    }
    out.push_back(std::move(match));
  }
  return out;
}

void WsResourceProxy::destroy() {
  invoke(actions::kDestroy, std::make_unique<xml::Element>(rl("Destroy")));
}

common::TimeMs WsResourceProxy::set_termination_time(common::TimeMs t) {
  auto request = std::make_unique<xml::Element>(rl("SetTerminationTime"));
  request->append_element(rl("RequestedTerminationTime"))
      .set_text(t == container::LifetimeManager::kNever ? "infinity"
                                                        : std::to_string(t));
  const soap::Envelope response = invoke(actions::kSetTerminationTime, std::move(request));
  const xml::Element* payload = response.payload();
  const xml::Element* granted =
      payload ? payload->child(rl("NewTerminationTime")) : nullptr;
  if (!granted) throw soap::SoapFault("Receiver", "malformed SetTerminationTime response");
  std::string text = granted->text();
  return text == "infinity" ? container::LifetimeManager::kNever
                            : container::parse_lifetime_ms(text);
}

}  // namespace gs::wsrf
