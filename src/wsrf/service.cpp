#include "wsrf/service.hpp"

#include "wsrf/base_faults.hpp"
#include "xml/writer.hpp"
#include "xml/xpath.hpp"

namespace gs::wsrf {

namespace {
xml::QName rp(const char* local) { return {soap::ns::kWsrfRp, local}; }
xml::QName rl(const char* local) { return {soap::ns::kWsrfRl, local}; }

xml::QName trimmed_qname(std::string ns, const std::string& local) {
  // Trim surrounding whitespace from the local name.
  size_t b = local.find_first_not_of(" \t\r\n");
  size_t e = local.find_last_not_of(" \t\r\n");
  if (b == std::string::npos) {
    throw_base_fault(FaultType::kInvalidResourcePropertyQName,
                     "empty resource property name");
  }
  return {std::move(ns), local.substr(b, e - b + 1)};
}

}  // namespace

xml::QName property_qname(const xml::Element& el, const std::string& default_ns) {
  return trimmed_qname(el.attr("ns").value_or(default_ns), el.text());
}

xml::QName property_qname(const xml::ArenaNode& el, const std::string& default_ns) {
  std::optional<std::string_view> ns = el.attr_local("ns");
  return trimmed_qname(ns ? std::string(*ns) : default_ns, el.text());
}

WsrfService::WsrfService(std::string name, ResourceHome& home,
                         PropertySet properties, std::string address)
    : container::Service(std::move(name)),
      home_(home),
      properties_(std::move(properties)),
      address_(std::move(address)) {}

std::string WsrfService::resolve_resource(
    const container::RequestContext& ctx) const {
  std::optional<std::string> id = ResourceHome::id_from(ctx.info);
  if (!id) {
    throw_base_fault(FaultType::kResourceUnknown,
                     "request carries no resource identifier header");
  }
  return *id;
}

soap::EndpointReference WsrfService::create_resource(
    std::unique_ptr<xml::Element> initial_state, common::TimeMs termination_time) {
  std::string id = home_.create(std::move(initial_state), termination_time);
  return home_.epr_for(id, address_);
}

void WsrfService::on_property_changed(ChangeListener listener) {
  listeners_.push_back(std::move(listener));
}

void WsrfService::fire_property_changed(const std::string& id,
                                        const xml::QName& prop,
                                        const xml::Element& state) {
  for (const auto& listener : listeners_) listener(id, prop, state);
}

void WsrfService::import_resource_properties() {
  register_operation(actions::kGetResourceProperty, [this](
                         container::RequestContext& ctx) {
    std::string id = resolve_resource(ctx);
    auto state = home_.load(id);
    const xml::ArenaNode* request = ctx.request->payload_view();
    if (!request) throw soap::SoapFault("Sender", "request has no body payload");
    xml::QName name = property_qname(*request, address_);
    const ResourceProperty* prop = properties_.find(name);
    if (!prop) {
      throw_base_fault(FaultType::kInvalidResourcePropertyQName,
                       "unknown resource property " + name.clark());
    }
    soap::Envelope response = container::make_response(
        ctx, actions::kGetResourceProperty + "Response");
    xml::Element& body =
        response.add_payload(rp("GetResourcePropertyResponse"));
    for (auto& el : prop->get(*state)) body.append(std::move(el));
    return response;
  });

  register_operation(actions::kGetMultipleResourceProperties, [this](
                         container::RequestContext& ctx) {
    std::string id = resolve_resource(ctx);
    auto state = home_.load(id);
    soap::Envelope response = container::make_response(
        ctx, actions::kGetMultipleResourceProperties + "Response");
    xml::Element& body =
        response.add_payload(rp("GetMultipleResourcePropertiesResponse"));
    for (const xml::Element* req :
         ctx.payload().children_named(rp("ResourceProperty"))) {
      xml::QName name = property_qname(*req, address_);
      const ResourceProperty* prop = properties_.find(name);
      if (!prop) {
        throw_base_fault(FaultType::kInvalidResourcePropertyQName,
                         "unknown resource property " + name.clark());
      }
      for (auto& el : prop->get(*state)) body.append(std::move(el));
    }
    return response;
  });

  register_operation(actions::kGetResourcePropertyDocument, [this](
                         container::RequestContext& ctx) {
    std::string id = resolve_resource(ctx);
    auto state = home_.load(id);
    soap::Envelope response = container::make_response(
        ctx, actions::kGetResourcePropertyDocument + "Response");
    xml::Element& body =
        response.add_payload(rp("GetResourcePropertyDocumentResponse"));
    body.append(properties_.document(*state, rp("ResourceProperties")));
    return response;
  });

  register_operation(actions::kSetResourceProperties, [this](
                         container::RequestContext& ctx) {
    std::string id = resolve_resource(ctx);
    // Set is read-modify-write over the state document; hold the
    // resource's lock stripe across load/mutate/save so concurrent Sets
    // to the same resource cannot lose updates.
    auto resource_lock = home_.lock_resource(id);
    auto state = home_.load(id);
    std::vector<xml::QName> changed;

    for (const xml::Element* op : ctx.payload().child_elements()) {
      if (op->name() == rp("Insert")) {
        for (const xml::Element* value : op->child_elements()) {
          const ResourceProperty* prop = properties_.find(value->name());
          if (!prop || !prop->writable()) {
            throw_base_fault(FaultType::kInvalidResourcePropertyQName,
                             "cannot insert property " + value->name().clark());
          }
          // Insert appends to the existing values.
          auto existing = prop->get(*state);
          std::vector<const xml::Element*> values;
          for (const auto& el : existing) values.push_back(el.get());
          values.push_back(value);
          prop->set(*state, values);
          changed.push_back(value->name());
        }
      } else if (op->name() == rp("Update")) {
        // Group update values by property name; each property is replaced
        // wholesale by its new values.
        std::vector<const xml::Element*> values = {};
        auto kids = op->child_elements();
        for (size_t i = 0; i < kids.size();) {
          xml::QName name = kids[i]->name();
          values.clear();
          size_t j = i;
          while (j < kids.size() && kids[j]->name() == name) {
            values.push_back(kids[j]);
            ++j;
          }
          const ResourceProperty* prop = properties_.find(name);
          if (!prop || !prop->writable()) {
            throw_base_fault(FaultType::kInvalidResourcePropertyQName,
                             "cannot update property " + name.clark());
          }
          prop->set(*state, values);
          changed.push_back(name);
          i = j;
        }
      } else if (op->name() == rp("Delete")) {
        xml::QName name(op->attr("ns").value_or(address_),
                        op->attr("local").value_or(""));
        const ResourceProperty* prop = properties_.find(name);
        if (!prop || !prop->writable()) {
          throw_base_fault(FaultType::kInvalidResourcePropertyQName,
                           "cannot delete property " + name.clark());
        }
        prop->set(*state, {});
        changed.push_back(name);
      } else {
        throw soap::SoapFault("Sender", "unknown SetResourceProperties component " +
                                            op->name().clark());
      }
    }

    home_.save(id, *state);
    resource_lock.unlock();  // listeners may re-enter this resource
    for (const auto& name : changed) fire_property_changed(id, name, *state);

    soap::Envelope response = container::make_response(
        ctx, actions::kSetResourceProperties + "Response");
    response.add_payload(rp("SetResourcePropertiesResponse"));
    return response;
  });
}

void WsrfService::import_query_resource_properties() {
  register_operation(actions::kQueryResourceProperties, [this](
                         container::RequestContext& ctx) {
    std::string id = resolve_resource(ctx);
    auto state = home_.load(id);
    const xml::Element* query = ctx.payload().child(rp("QueryExpression"));
    if (!query) {
      throw soap::SoapFault("Sender", "QueryResourceProperties needs a "
                                      "QueryExpression");
    }
    std::string dialect = query->attr("Dialect").value_or("");
    if (dialect != kXPathDialect) {
      throw_base_fault(FaultType::kQueryEvaluationError,
                       "unsupported query dialect '" + dialect + "'");
    }
    auto doc = properties_.document(*state, rp("ResourceProperties"));
    soap::Envelope response = container::make_response(
        ctx, actions::kQueryResourceProperties + "Response");
    xml::Element& body =
        response.add_payload(rp("QueryResourcePropertiesResponse"));
    try {
      xml::XPathExpr expr = xml::XPathExpr::compile(query->text());
      xml::XPathValue value = expr.eval(*doc);
      if (value.is_node_set()) {
        for (const auto& node : value.node_set()) {
          if (node.is_element()) body.append(node.element->clone());
        }
      } else {
        body.set_text(value.to_string());
      }
    } catch (const xml::XPathError& e) {
      throw_base_fault(FaultType::kQueryEvaluationError, e.what());
    }
    return response;
  });
}

void WsrfService::import_query_resources() {
  register_operation(actions::kQueryResources, [this](
                         container::RequestContext& ctx) {
    const xml::Element* query = ctx.payload().child(rp("QueryExpression"));
    if (!query) {
      throw soap::SoapFault("Sender", "QueryResources needs a QueryExpression");
    }
    std::string dialect = query->attr("Dialect").value_or("");
    if (dialect != kXPathDialect) {
      throw_base_fault(FaultType::kQueryEvaluationError,
                       "unsupported query dialect '" + dialect + "'");
    }
    soap::Envelope response =
        container::make_response(ctx, actions::kQueryResources + "Response");
    xml::Element& body = response.add_payload(
        xml::QName("http://gridstacks.dev/wsrf", "QueryResourcesResponse"));
    try {
      xml::XPathExpr expr = xml::XPathExpr::compile(query->text());
      for (auto& match : home_.db().query(home_.collection(), expr)) {
        xml::Element& item = body.append_element(
            xml::QName("http://gridstacks.dev/wsrf", "Match"));
        item.append(home_.epr_for(match.id, address_)
                        .to_xml(xml::QName("http://gridstacks.dev/wsrf",
                                           "ResourceEPR")));
        item.append(std::move(match.document));
      }
    } catch (const xml::XPathError& e) {
      throw_base_fault(FaultType::kQueryEvaluationError, e.what());
    }
    return response;
  });
}

void WsrfService::import_resource_lifetime() {
  register_operation(actions::kDestroy, [this](container::RequestContext& ctx) {
    std::string id = resolve_resource(ctx);
    if (!home_.destroy(id)) {
      throw_base_fault(FaultType::kResourceUnknown,
                       "no resource '" + id + "' to destroy");
    }
    soap::Envelope response =
        container::make_response(ctx, actions::kDestroy + "Response");
    response.add_payload(rl("DestroyResponse"));
    return response;
  });

  register_operation(actions::kSetTerminationTime, [this](
                         container::RequestContext& ctx) {
    std::string id = resolve_resource(ctx);
    if (!home_.exists(id)) {
      throw_base_fault(FaultType::kResourceUnknown, "no resource '" + id + "'");
    }
    const xml::Element* requested =
        ctx.payload().child(rl("RequestedTerminationTime"));
    if (!requested) {
      throw soap::SoapFault("Sender",
                            "SetTerminationTime needs RequestedTerminationTime");
    }
    std::string text = requested->text();
    common::TimeMs t = container::LifetimeManager::kNever;
    if (text != "infinity") {
      try {
        t = container::parse_lifetime_ms(text);
      } catch (const std::exception&) {
        throw_base_fault(FaultType::kUnableToSetTerminationTime,
                         "malformed termination time '" + text + "'");
      }
    }
    if (!home_.set_termination_time(id, t)) {
      throw_base_fault(FaultType::kUnableToSetTerminationTime,
                       "resource '" + id + "' has no managed lifetime");
    }
    soap::Envelope response =
        container::make_response(ctx, actions::kSetTerminationTime + "Response");
    xml::Element& body = response.add_payload(rl("SetTerminationTimeResponse"));
    body.append_element(rl("NewTerminationTime"))
        .set_text(t == container::LifetimeManager::kNever ? "infinity"
                                                          : std::to_string(t));
    return response;
  });
}

}  // namespace gs::wsrf
