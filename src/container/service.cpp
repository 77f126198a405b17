#include "container/service.hpp"

#include "common/uuid.hpp"

namespace gs::container {

const xml::Element& RequestContext::payload() const {
  const xml::Element* p = request ? request->payload() : nullptr;
  if (!p) throw soap::SoapFault("Sender", "request has no body payload");
  return *p;
}

const std::string& RequestContext::caller_dn() const {
  if (!identity) {
    throw soap::SoapFault("Sender",
                          "operation requires an authenticated caller identity");
  }
  return identity->subject_dn;
}

void Service::register_operation(std::string action, Operation op) {
  operations_[std::move(action)] = std::move(op);
}

bool Service::supports(const std::string& action) const {
  return operations_.contains(action);
}

std::vector<std::string> Service::actions() const {
  std::vector<std::string> out;
  out.reserve(operations_.size());
  for (const auto& [action, op] : operations_) out.push_back(action);
  return out;
}

soap::Envelope Service::dispatch(RequestContext& ctx) {
  auto it = operations_.find(ctx.info.action);
  if (it == operations_.end()) {
    return soap::Envelope::make_fault(
        {"Sender", "service " + name_ + " does not support action " +
                       (ctx.info.action.empty() ? "<missing>" : ctx.info.action),
         "", ""});
  }
  try {
    return it->second(ctx);
  } catch (const soap::SoapFault& f) {
    return soap::Envelope::make_fault(f.fault());
  } catch (const std::exception& e) {
    return soap::Envelope::make_fault({"Receiver", e.what(), "", ""});
  }
}

soap::Envelope make_response(const RequestContext& ctx, const std::string& action) {
  soap::Envelope env;
  soap::MessageInfo info;
  info.action = action;
  info.message_id = common::new_urn_uuid();
  info.relates_to = ctx.info.message_id;
  env.write_addressing(std::move(info));
  return env;
}

}  // namespace gs::container
