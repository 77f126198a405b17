// In-process virtual network: named endpoints, metered wire, and SOAP
// callers over three transports (HTTP, HTTPS/TLS-lite, raw SOAP-over-TCP).
//
// Endpoints are bound by authority ("exec.vo.example" or "hostB:8443").
// Every exchange serializes the request to real octets, charges the wire
// model, and re-parses on the far side, so both stacks pay genuine
// marshaling costs on every hop — including service-to-service outcalls in
// Grid-in-a-Box, which is what Figure 6 turns on.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>

#include "common/clock.hpp"
#include "net/http.hpp"
#include "net/wire.hpp"
#include "security/tls.hpp"
#include "soap/envelope.hpp"

namespace gs::net {

/// A server bound into the network.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual HttpResponse handle(const HttpRequest& request) = 0;
  /// Credential presented for TLS; nullptr disables the https transport.
  virtual const security::Credential* tls_credential() const { return nullptr; }
};

/// Adapts a lambda to an Endpoint (notification sinks, test doubles).
class LambdaEndpoint final : public Endpoint {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  explicit LambdaEndpoint(Handler handler, const security::Credential* cred = nullptr)
      : handler_(std::move(handler)), cred_(cred) {}
  HttpResponse handle(const HttpRequest& request) override { return handler_(request); }
  const security::Credential* tls_credential() const override { return cred_; }

 private:
  Handler handler_;
  const security::Credential* cred_;
};

/// The server dispatch of both fabrics: the request in `octets` goes to
/// `endpoint` in the `http.receive` span; a rejected or `timed_out` one gets
/// a typed 4xx (see http.hpp), counted in net.http.rejected.
HttpResponse serve_http(Endpoint& endpoint, std::string_view octets,
                        bool timed_out = false);

class NetworkError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The longest Retry-After a client honours: a larger hint saturates here,
/// so a server cannot park a caller indefinitely.
inline constexpr common::TimeMs kMaxRetryAfterMs = 300'000;

/// A Retry-After field value in milliseconds: non-negative delta-seconds,
/// saturated at kMaxRetryAfterMs; anything else (an HTTP-date, a sign, an
/// exponent) is no hint and yields 0.
common::TimeMs retry_after_ms(std::string_view value);

/// The server explicitly refused work (HTTP 503 Service Unavailable from
/// an overloaded container's admission handler). A transport failure for
/// retry purposes, but it carries the server's Retry-After hint so clients
/// back off on the server's schedule instead of their own — and circuit
/// breakers count it toward opening.
class OverloadError : public NetworkError {
 public:
  OverloadError(const std::string& what, common::TimeMs retry_after_ms)
      : NetworkError(what), retry_after_ms_(retry_after_ms) {}
  /// Server-requested backoff; 0 when the response carried no hint.
  common::TimeMs retry_after_ms() const noexcept { return retry_after_ms_; }

 private:
  common::TimeMs retry_after_ms_;
};

/// Deterministic per-route fault policy. Tests script failures against a
/// destination authority: every exchange to it may be dropped with a
/// seeded probability, delayed by a fixed simulated latency, or refused
/// outright (hard partition). Drop decisions come from a per-route RNG
/// seeded by `seed`, so a given call sequence fails identically on every
/// run — no wall clock, no global randomness.
struct FaultPolicy {
  double drop_probability = 0.0;  // [0, 1]; applied per exchange
  double added_latency_ms = 0.0;  // charged to the caller's meter
  bool partitioned = false;       // hard partition: every exchange fails
  std::uint64_t seed = 0x5eed;    // drop-decision RNG seed
};

/// The in-process network fabric.
///
/// Callers resolve an authority once and re-resolve only when the bind
/// generation moves, and an exchange to a route without a fault policy
/// reads one atomic: in steady state no exchange takes the fabric's mutex.
class VirtualNetwork {
 public:
  explicit VirtualNetwork(NetworkProfile profile = NetworkProfile::colocated())
      : profile_(profile) {}

  void bind(const std::string& authority, Endpoint& endpoint);
  void unbind(const std::string& authority);
  Endpoint* resolve(const std::string& authority) const;
  /// Moves on every bind and unbind: an endpoint resolved while the
  /// generation read g is still current while it reads g.
  std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  const NetworkProfile& profile() const noexcept { return profile_; }
  void set_profile(NetworkProfile p) { profile_ = p; }

  /// Installs (or replaces) the fault policy for exchanges to `authority`;
  /// replacing reseeds the route's drop RNG from `policy.seed`.
  void set_fault_policy(const std::string& authority, FaultPolicy policy);
  void clear_fault_policy(const std::string& authority);
  /// Applies `authority`'s fault policy to one exchange: charges any added
  /// latency to `meter`, throws NetworkError on partition or a drop.
  /// No-op for routes without a policy.
  void apply_faults(const std::string& authority, WireMeter* meter);

  /// Charges one message of `bytes` octets on the meter (if any).
  void charge_message(WireMeter* meter, std::size_t bytes) const;
  void charge_connect(WireMeter* meter) const;

 private:
  struct FaultState {
    FaultPolicy policy;
    std::mt19937_64 rng;
  };

  mutable std::mutex mu_;
  std::map<std::string, Endpoint*> endpoints_;
  std::map<std::string, FaultState> faults_;
  std::atomic<std::uint64_t> generation_{0};     // written under mu_
  std::atomic<std::size_t> fault_routes_{0};     // faults_.size(), written under mu_
  NetworkProfile profile_;
};

/// Wire transports for SOAP exchange.
enum class TransportKind {
  kHttp,     // plain HTTP/1.1 POST
  kHttps,    // TLS-lite channel with session caching
  kSoapTcp,  // length-prefixed SOAP frames on a persistent TCP connection
};

/// Client-side SOAP request/response interface. Service proxies talk to
/// this; implementations exist for the virtual network and real sockets.
class SoapCaller {
 public:
  virtual ~SoapCaller() = default;
  /// Sends `request` to `address` (a URL) and returns the response
  /// envelope. Throws NetworkError on transport failure; faults come back
  /// as envelopes for the proxy to inspect.
  virtual soap::Envelope call(const std::string& address,
                              const soap::Envelope& request) = 0;
};

/// The client side of a SOAP-over-HTTP exchange, for every caller. A 200
/// (reply) or non-empty 500 (fault) body is parsed as the envelope; a 503
/// throws OverloadError with its Retry-After; a malformed reply or any other
/// status throws NetworkError naming `address`.
std::string soap_http_request(const Url& url, const soap::Envelope& request);
soap::Envelope soap_http_response(std::string_view octets,
                                  const std::string& address);

/// SOAP caller over the virtual network.
///
/// Connection behaviour models the toolkits in the paper:
///  * kHttp / kHttps pool one connection per authority; `keep_alive=false`
///    reconnects per message (WSRF.NET's notification sink behaviour).
///  * kHttps performs the TLS-lite handshake on first contact and resumes
///    from the session cache afterwards.
///  * kSoapTcp uses one persistent connection per authority with 4-byte
///    length framing (the Plumbwork Orange WSE SoapReceiver behaviour).
class VirtualCaller final : public SoapCaller {
 public:
  struct Options {
    TransportKind transport = TransportKind::kHttp;
    bool keep_alive = true;
    WireMeter* meter = nullptr;
    /// Trust anchor for server certificates (required for kHttps).
    const security::Certificate* anchor = nullptr;
    /// Entropy for TLS randoms; defaults to a fixed seed for determinism.
    std::uint64_t rng_seed = 0x5eed;
  };

  VirtualCaller(VirtualNetwork& net, Options options);

  soap::Envelope call(const std::string& address,
                      const soap::Envelope& request) override;

  /// Drops pooled connections and cached TLS sessions (tests/ablations).
  void reset_connections();

  const Options& options() const noexcept { return options_; }

 private:
  // A TLS channel has its own lock, so a service handling a request may
  // make nested calls to *other* authorities through the same caller
  // without self-deadlock.
  struct TlsState {
    security::TlsConnection client;
    security::TlsConnection server;
    std::mutex mu;
  };
  // Per-authority state: the endpoint and the network generation it was
  // resolved at, the pooled connection and the TLS channel.
  struct Channel {
    Endpoint* endpoint = nullptr;
    std::uint64_t generation = 0;
    bool connected = false;
    std::shared_ptr<TlsState> tls;
  };
  // A parsed address. Cached routes are never erased, so a reference to
  // one stays valid outside mu_.
  struct Route {
    Url url;
    std::string authority;
  };
  static constexpr std::size_t kMaxCachedRoutes = 256;

  /// The cached route for `address`, parsing it on first use; once the
  /// cache is full, a new address is parsed into `uncached`.
  const Route& route_for(const std::string& address, Route& uncached);
  std::string exchange_octets(const Route& route, const std::string& octets);

  VirtualNetwork& net_;
  Options options_;
  std::mutex mu_;
  std::map<std::string, Route, std::less<>> routes_;     // by address
  std::map<std::string, Channel, std::less<>> channels_;  // by authority
  security::TlsSessionCache session_cache_;
  std::mt19937_64 rng_;
};

}  // namespace gs::net
