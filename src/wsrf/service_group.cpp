#include "wsrf/service_group.hpp"

#include "wsrf/base_faults.hpp"

namespace gs::wsrf {

namespace {
xml::QName sg(const char* local) { return {soap::ns::kWsrfSg, local}; }
}  // namespace

ServiceGroupService::ServiceGroupService(std::string name, ResourceHome& home,
                                         std::string address)
    : WsrfService(std::move(name), home, PropertySet{}, std::move(address)) {
  import_resource_lifetime();  // entries are destroyable resources

  register_operation(sg_actions::kAdd, [this](container::RequestContext& ctx) {
    const xml::Element& payload = ctx.payload();
    const xml::Element* member = payload.child(sg("MemberEPR"));
    if (!member) throw soap::SoapFault("Sender", "Add needs a MemberEPR");
    // Content is optional; rules apply when present (and when rules exist,
    // content is required to match one).
    const xml::Element* content = payload.child(sg("Content"));
    if (!content_rules_.empty()) {
      auto content_children =
          content ? content->child_elements() : std::vector<const xml::Element*>{};
      const xml::Element* root =
          content_children.empty() ? nullptr : content_children.front();
      bool allowed = false;
      for (const auto& rule : content_rules_) {
        if (root && root->name() == rule) {
          allowed = true;
          break;
        }
      }
      if (!allowed) {
        throw_base_fault(FaultType::kAddRefused,
                         "entry content does not satisfy the group's "
                         "membership content rules");
      }
    }

    common::TimeMs termination = container::LifetimeManager::kNever;
    if (const xml::Element* t = payload.child(sg("InitialTerminationTime"))) {
      if (t->text() != "infinity") {
        termination = container::parse_lifetime_ms(t->text());
      }
    }

    auto entry_state = std::make_unique<xml::Element>(sg("Entry"));
    entry_state->append(member->clone());
    if (content) entry_state->append(content->clone());
    soap::EndpointReference entry_epr =
        create_resource(std::move(entry_state), termination);

    soap::Envelope response =
        container::make_response(ctx, sg_actions::kAdd + "Response");
    response.add_payload(entry_epr.to_xml(sg("EntryEPR")));
    return response;
  });

  register_operation(sg_actions::kGetEntries, [this](
                         container::RequestContext& ctx) {
    soap::Envelope response =
        container::make_response(ctx, sg_actions::kGetEntries + "Response");
    xml::Element& body = response.add_payload(sg("GetEntriesResponse"));
    for (const std::string& id : this->home().ids()) {
      auto state = this->home().try_load(id);
      if (!state) continue;
      xml::Element& entry = body.append_element(sg("EntryListItem"));
      entry.append(this->home().epr_for(id, this->address()).to_xml(sg("EntryEPR")));
      for (const xml::Element* child : state->child_elements()) {
        entry.append(child->clone());
      }
    }
    return response;
  });
}

void ServiceGroupService::add_content_rule(xml::QName allowed_content_root) {
  content_rules_.push_back(std::move(allowed_content_root));
}

soap::EndpointReference ServiceGroupProxy::add(
    const soap::EndpointReference& member, std::unique_ptr<xml::Element> content,
    common::TimeMs termination_time) {
  auto request = std::make_unique<xml::Element>(sg("Add"));
  request->append(member.to_xml(sg("MemberEPR")));
  if (content) {
    request->append_element(sg("Content")).append(std::move(content));
  }
  if (termination_time != container::LifetimeManager::kNever) {
    request->append_element(sg("InitialTerminationTime"))
        .set_text(std::to_string(termination_time));
  }
  const soap::Envelope response = invoke(sg_actions::kAdd, std::move(request));
  const xml::Element* epr = response.payload();
  if (!epr || epr->name() != sg("EntryEPR")) {
    throw soap::SoapFault("Receiver", "malformed Add response");
  }
  return soap::EndpointReference::from_xml(*epr);
}

std::vector<ServiceGroupProxy::Entry> ServiceGroupProxy::entries() {
  const soap::Envelope response = invoke(
      sg_actions::kGetEntries, std::make_unique<xml::Element>(sg("GetEntries")));
  std::vector<Entry> out;
  const xml::Element* payload = response.payload();
  if (!payload) return out;
  for (const xml::Element* item : payload->children_named(sg("EntryListItem"))) {
    Entry entry;
    if (const xml::Element* e = item->child(sg("EntryEPR"))) {
      entry.entry = soap::EndpointReference::from_xml(*e);
    }
    if (const xml::Element* m = item->child(sg("MemberEPR"))) {
      entry.member = soap::EndpointReference::from_xml(*m);
    }
    if (const xml::Element* c = item->child(sg("Content"))) {
      auto kids = c->child_elements();
      if (!kids.empty()) entry.content = kids.front()->clone_element();
    }
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace gs::wsrf
