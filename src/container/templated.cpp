#include "container/templated.hpp"

#include "common/uuid.hpp"
#include "soap/envelope.hpp"
#include "telemetry/propagation.hpp"

namespace gs::container {

bool TemplatedResponder::eligible(const RequestContext& ctx) {
  // The MessageID check mirrors write_addressing: an empty RelatesTo is
  // skipped on the DOM path, and the compiled skeleton always carries one.
  return ctx.allow_template_response && !ctx.info.message_id.empty();
}

std::shared_ptr<soap::PendingResponse> TemplatedResponder::start(
    const RequestContext& ctx) {
  if (!eligible(ctx)) return nullptr;
  std::call_once(once_, [this] {
    soap::ResponseTemplate::Spec spec = make_spec_();
    spec.trace_qname = telemetry::trace_header_qname();
    tpl_ = soap::ResponseTemplate::compile(std::move(spec));
  });
  auto pr = std::make_shared<soap::PendingResponse>();
  pr->tpl = tpl_;
  pr->message_id = common::new_urn_uuid();
  pr->relates_to = ctx.info.message_id;
  return pr;
}

}  // namespace gs::container
