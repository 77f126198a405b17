// Template-backed fast responses for service operations.
//
// A TemplatedResponder owns one compiled soap::ResponseTemplate (lazily
// compiled on first use — compilation serializes a prototype through the
// DOM writer, so it happens once per process, not per deployment) and hands
// out PendingResponse objects primed with this request's addressing. A
// service operation's hot path becomes:
//
//   if (auto pr = responder_.start(ctx)) {
//     pr->fragment_shared = db_.load_octets(...);   // or values/fragment
//     return soap::Envelope::make_pending(std::move(pr));
//   }
//   // ... DOM path, byte-identical by construction ...
//
// start() returns null when the fast path does not apply (in-process entry,
// message security, or a request without a MessageID — the DOM path skips
// RelatesTo then, which a compiled skeleton cannot), and the operation falls
// through to the classic DOM build.
//
// The trace-context header QName is injected here (the container layer
// already depends on telemetry; soap must not).
#pragma once

#include <functional>
#include <memory>
#include <mutex>

#include "container/service.hpp"
#include "soap/template.hpp"

namespace gs::container {

class TemplatedResponder {
 public:
  /// `make_spec` builds the template spec; trace_qname is filled in here.
  using SpecFn = std::function<soap::ResponseTemplate::Spec()>;
  explicit TemplatedResponder(SpecFn make_spec)
      : make_spec_(std::move(make_spec)) {}

  /// True when `ctx` may be answered from a template at all.
  static bool eligible(const RequestContext& ctx);

  /// A PendingResponse primed with MessageID/RelatesTo for this request,
  /// or null when the fast path does not apply.
  std::shared_ptr<soap::PendingResponse> start(const RequestContext& ctx);

 private:
  SpecFn make_spec_;
  std::once_flag once_;
  std::shared_ptr<const soap::ResponseTemplate> tpl_;
};

}  // namespace gs::container
