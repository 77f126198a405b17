// The container's request pipeline as an explicit, composable chain.
//
// Paper Figure 1 draws the container as a pipeline — Dispatch, a
// Security/Policy handler, Lifetime Management, then the service code over
// shared storage. The chain makes that pipeline first-class: each stage is
// a Handler that runs work on the way in, invokes the rest of the chain,
// and sees the response on the way out (how signing and trace echo
// naturally wrap the inner stages). Deployments can append or insert
// stages per container without touching the core.
//
// Default order (Container::default_chain):
//   parse -> telemetry -> lifetime-sweep -> resolve -> security -> dispatch
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "container/registry.hpp"
#include "container/service.hpp"
#include "net/http.hpp"
#include "telemetry/cost.hpp"

namespace gs::container {

class Container;
class HandlerChain;

/// Everything one request carries through the chain.
struct PipelineContext {
  PipelineContext(Container& container, std::string path)
      : container(container), path(std::move(path)) {}

  Container& container;
  std::string path;

  /// Transport boundary. `http_request` is null when the request entered
  /// in-process via Container::process; a transport handler that fills
  /// `http_response` sets `http_done`.
  const net::HttpRequest* http_request = nullptr;
  net::HttpResponse http_response;
  bool http_done = false;

  /// The request envelope: in-process entry points it at the caller's
  /// envelope; the parse handler points it at `parsed`.
  const soap::Envelope* request = nullptr;
  soap::Envelope parsed;

  soap::Envelope response;

  /// What the service sees; identity is established by the security
  /// handler, request/info by the resolve handler.
  RequestContext rpc;

  /// The resolved service, pinned until this context dies so a concurrent
  /// undeploy cannot free it mid-request.
  ServiceHandle service;

  /// Cost accrued so far: stages add what they measure (parse/serialize
  /// time, probe deltas, octets); the container stamps wall_us/fault and
  /// hands the record to its CostAggregator, when one is attached.
  telemetry::CostRecord cost;
};

/// The tenant a request is accounted to, by admission and cost attribution
/// alike: its X-GS-Tenant header, or "anon".
std::string request_tenant(const PipelineContext& ctx);

/// One pipeline stage. `next` runs the remainder of the chain; work done
/// after the call observes the response on the way out. Not calling
/// `next` short-circuits the chain — the handler must leave a response.
class Handler {
 public:
  virtual ~Handler() = default;

  /// Stable stage name used for chain edits ("parse", "security", ...).
  virtual const char* name() const noexcept = 0;

  class Next {
   public:
    void operator()(PipelineContext& ctx) const;

   private:
    friend class HandlerChain;
    Next(const HandlerChain& chain, size_t index)
        : chain_(&chain), index_(index) {}
    const HandlerChain* chain_;
    size_t index_;
  };

  virtual void handle(PipelineContext& ctx, Next next) = 0;
};

/// Ordered stage list. Compose at deployment time; running requests read
/// it without synchronization, so edits must happen before traffic.
class HandlerChain {
 public:
  HandlerChain& append(std::shared_ptr<Handler> handler);
  /// Inserts relative to the named stage; throws std::invalid_argument
  /// when no stage has that name.
  HandlerChain& insert_before(std::string_view name,
                              std::shared_ptr<Handler> handler);
  HandlerChain& insert_after(std::string_view name,
                             std::shared_ptr<Handler> handler);

  void run(PipelineContext& ctx) const;

 private:
  friend class Handler::Next;
  void run_from(PipelineContext& ctx, size_t index) const;
  size_t index_of(std::string_view name) const;

  std::vector<std::shared_ptr<Handler>> handlers_;
};

// --- built-in stages --------------------------------------------------------

/// Transport boundary: parses the HTTP body into an envelope on the way in
/// (rejects ride a 400, counted and logged like every other fault) and
/// serializes the response envelope — faults on a 500, both content-typed
/// application/soap+xml — on the way out. Pass-through for in-process
/// entry.
class ParseHandler final : public Handler {
 public:
  const char* name() const noexcept override { return "parse"; }
  void handle(PipelineContext& ctx, Next next) override;
};

/// Owns the per-request dispatch span and metrics: adopts a remote trace
/// context, counts the request, echoes the trace header onto the response
/// and records container.dispatch_us.
class TelemetryHandler final : public Handler {
 public:
  const char* name() const noexcept override { return "telemetry"; }
  void handle(PipelineContext& ctx, Next next) override;
};

/// Fires scheduled terminations before the request sees any state.
class LifetimeSweepHandler final : public Handler {
 public:
  const char* name() const noexcept override { return "lifetime-sweep"; }
  void handle(PipelineContext& ctx, Next next) override;
};

/// Dispatch, phase one: path -> pinned service. Faults (unsigned — the
/// request has not passed security yet) when nothing is deployed.
class ResolveHandler final : public Handler {
 public:
  const char* name() const noexcept override { return "resolve"; }
  void handle(PipelineContext& ctx, Next next) override;
};

/// Security/Policy: verifies the signature and establishes identity on
/// the way in, signs the response on the way out (kX509 mode; pass-through
/// otherwise). Rejections are signed faults.
class SecurityHandler final : public Handler {
 public:
  const char* name() const noexcept override { return "security"; }
  void handle(PipelineContext& ctx, Next next) override;
};

/// Dispatch, phase two: wsa:Action -> operation on the pinned service.
class DispatchHandler final : public Handler {
 public:
  const char* name() const noexcept override { return "dispatch"; }
  void handle(PipelineContext& ctx, Next next) override;
};

}  // namespace gs::container
