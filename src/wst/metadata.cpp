#include "wst/metadata.hpp"

#include <limits>

namespace gs::wst {

namespace {

xml::QName mex_qn(const char* local) { return {mex::kNs, local}; }

const char* content_name(xml::ContentType type) {
  switch (type) {
    case xml::ContentType::kNone: return "none";
    case xml::ContentType::kString: return "string";
    case xml::ContentType::kInteger: return "integer";
    case xml::ContentType::kDouble: return "double";
    case xml::ContentType::kBoolean: return "boolean";
    case xml::ContentType::kAny: return "any";
  }
  return "none";
}

xml::ContentType content_from_name(const std::string& name) {
  if (name == "string") return xml::ContentType::kString;
  if (name == "integer") return xml::ContentType::kInteger;
  if (name == "double") return xml::ContentType::kDouble;
  if (name == "boolean") return xml::ContentType::kBoolean;
  if (name == "any") return xml::ContentType::kAny;
  return xml::ContentType::kNone;
}

// "{uri}local" <-> QName (Clark notation, the same form QName::clark emits).
xml::QName qname_from_clark(const std::string& clark) {
  if (!clark.empty() && clark[0] == '{') {
    size_t close = clark.find('}');
    if (close != std::string::npos) {
      return {clark.substr(1, close - 1), clark.substr(close + 1)};
    }
  }
  return xml::QName(clark);
}

}  // namespace

std::unique_ptr<xml::Element> schema_to_xml(const xml::ElementDecl& decl) {
  auto el = std::make_unique<xml::Element>(mex_qn("Element"));
  el->set_attr("name", decl.name().clark());
  el->set_attr("content", content_name(decl.content()));
  if (decl.is_open()) el->set_attr("open", "true");
  for (const auto& attr : decl.required_attrs()) {
    el->append_element(mex_qn("RequiredAttribute"))
        .set_attr("name", attr.clark());
  }
  for (const auto& child : decl.children()) {
    xml::Element& child_el =
        static_cast<xml::Element&>(el->append(schema_to_xml(*child.decl)));
    child_el.set_attr("minOccurs", std::to_string(child.min_occurs));
    child_el.set_attr("maxOccurs",
                      child.max_occurs == std::numeric_limits<size_t>::max()
                          ? "unbounded"
                          : std::to_string(child.max_occurs));
  }
  return el;
}

xml::ElementDecl schema_from_xml(const xml::Element& el) {
  xml::ElementDecl decl(qname_from_clark(el.attr("name").value_or("")),
                        content_from_name(el.attr("content").value_or("none")));
  if (el.attr("open") == "true") decl.open_content();
  for (const xml::Element* child : el.child_elements()) {
    if (child->name() == mex_qn("RequiredAttribute")) {
      decl.require_attr(qname_from_clark(child->attr("name").value_or("")));
    } else if (child->name() == mex_qn("Element")) {
      size_t min_occurs = 1, max_occurs = 1;
      if (auto v = child->attr("minOccurs")) min_occurs = std::stoul(*v);
      if (auto v = child->attr("maxOccurs")) {
        max_occurs = *v == "unbounded" ? std::numeric_limits<size_t>::max()
                                       : std::stoul(*v);
      }
      decl.child(schema_from_xml(*child), min_occurs, max_occurs);
    }
  }
  return decl;
}

void MetadataExtension::declare(const std::string& type_name,
                                xml::ElementDecl schema) {
  schemas_[type_name] =
      std::make_unique<xml::ElementDecl>(std::move(schema));
}

void MetadataExtension::register_operation() {
  service_.register_operation(
      mex::kGetMetadataAction, [this](container::RequestContext& ctx) {
        soap::Envelope response =
            container::make_response(ctx, mex::kGetMetadataAction + "Response");
        xml::Element& body = response.add_payload(mex_qn("Metadata"));
        for (const auto& [type_name, decl] : schemas_) {
          xml::Element& section = body.append_element(mex_qn("MetadataSection"));
          section.set_attr("Identifier", type_name);
          section.append(schema_to_xml(*decl));
        }
        return response;
      });
}

std::map<std::string, xml::Schema> MetadataProxy::get_metadata() {
  const soap::Envelope response = invoke(mex::kGetMetadataAction);
  std::map<std::string, xml::Schema> out;
  const xml::Element* metadata = response.payload();
  if (!metadata) return out;
  for (const xml::Element* section :
       metadata->children_named(mex_qn("MetadataSection"))) {
    auto kids = section->child_elements();
    if (kids.empty()) continue;
    out.emplace(section->attr("Identifier").value_or(""),
                xml::Schema(schema_from_xml(*kids.front())));
  }
  return out;
}

xml::Schema MetadataProxy::get_schema(const std::string& type_name) {
  auto all = get_metadata();
  auto it = all.find(type_name);
  if (it == all.end()) {
    throw soap::SoapFault("Sender", "service advertises no schema for type '" +
                                        type_name + "'");
  }
  return std::move(it->second);
}

}  // namespace gs::wst
