#include "net/virtual_network.hpp"

#include <algorithm>

#include "common/clock.hpp"
#include "common/encoding.hpp"
#include "security/cert.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace gs::net {

namespace {

// The request side of the one server dispatch: the endpoint runs inside the
// http.receive span, timed into net.http.requests / net.http.request_us.
HttpResponse dispatch(Endpoint& endpoint, const HttpRequest& request) {
  static telemetry::Counter& requests =
      telemetry::MetricsRegistry::global().counter("net.http.requests");
  static telemetry::Histogram& request_us =
      telemetry::MetricsRegistry::global().histogram("net.http.request_us");
  HttpResponse response;
  {
    // Scoped to handle() only: once the endpoint re-roots the span onto the
    // caller's trace it must be recorded before the client reads the log.
    telemetry::SpanScope span("http.receive", "net",
                              &telemetry::TraceLog::global(), &request_us);
    response = endpoint.handle(request);
  }
  requests.add();
  return response;
}

// SOAP/TCP framing: a 4-byte little-endian payload length, then the payload.
// Returns the prefix with room reserved for the payload the caller appends.
std::string soap_tcp_prefix(std::size_t payload_size) {
  std::string frame;
  frame.reserve(4 + payload_size);
  auto len = static_cast<std::uint32_t>(payload_size);
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>((len >> (i * 8)) & 0xFF));
  return frame;
}

std::string_view soap_tcp_payload(std::string_view frame) {
  if (frame.size() < 4) throw NetworkError("short SOAP/TCP frame");
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= std::uint32_t{static_cast<unsigned char>(frame[i])} << (i * 8);
  }
  if (frame.size() - 4 < len) throw NetworkError("short SOAP/TCP frame");
  return frame.substr(4, len);
}

}  // namespace

HttpResponse serve_http(Endpoint& endpoint, std::string_view octets,
                        bool timed_out) {
  static telemetry::Counter& rejected =
      telemetry::MetricsRegistry::global().counter("net.http.rejected");
  if (!timed_out) {
    if (auto request = HttpRequest::parse(octets)) return dispatch(endpoint, *request);
  }
  rejected.add();
  if (timed_out) return HttpResponse::error(408, "Request Timeout");
  switch (frame_http(octets).status) {
    case Framing::kHeadTooLarge:
      return HttpResponse::error(431, "Request Header Fields Too Large");
    case Framing::kBodyTooLarge:
      return HttpResponse::error(413, "Content Too Large");
    default:
      return HttpResponse::error(400, "Bad Request");
  }
}

std::string soap_http_request(const Url& url, const soap::Envelope& request) {
  // The envelope is written into a per-thread buffer whose capacity survives
  // across requests, then copied once behind its head.
  thread_local std::shared_ptr<std::string> scratch;
  static const HeaderMap kSoapHeaders{{"Content-Type", "application/soap+xml"}};
  common::BufferChain body;
  request.wire_chain(body, &scratch);
  std::string out =
      write_request_head("POST", url.path, url.authority(), kSoapHeaders, body.size());
  body.join_into(out);
  return out;
}

common::TimeMs retry_after_ms(std::string_view value) {
  // delay-seconds = 1*DIGIT (RFC 9110 §10.2.3); an HTTP-date, a sign, an
  // exponent or blanks make the hint absent.
  if (value.empty() || value.find_first_not_of("0123456789") != std::string_view::npos) {
    return 0;
  }
  constexpr common::TimeMs kMaxSeconds = kMaxRetryAfterMs / 1000;
  common::TimeMs seconds = 0;
  for (char digit : value) {
    seconds = std::min(kMaxSeconds, seconds * 10 + (digit - '0'));
  }
  return seconds * 1000;
}

soap::Envelope soap_http_response(std::string_view octets,
                                  const std::string& address) {
  auto response = parse_response_head(octets);
  if (!response) throw NetworkError("malformed HTTP response from " + address);
  if (response->status == 503) {
    // Admission shed: surface the server's Retry-After so the retry layer
    // backs off on the server's schedule and breakers count it.
    HeaderMap headers;
    frame_http(octets, &headers);
    auto it = headers.find("Retry-After");
    throw OverloadError("HTTP 503 Service Unavailable from " + address,
                        it == headers.end() ? 0 : retry_after_ms(it->second));
  }
  // SOAP 1.2 HTTP binding: a reply envelope rides a 200, a fault a 500.
  // Any other status is a transport failure whatever its body holds.
  if (response->status != 200 && (response->status != 500 || response->body.empty())) {
    throw NetworkError("HTTP " + std::to_string(response->status) + " " +
                       std::string(response->reason) + " from " + address);
  }
  return soap::Envelope::from_xml(response->body);
}

void VirtualNetwork::bind(const std::string& authority, Endpoint& endpoint) {
  std::lock_guard lock(mu_);
  endpoints_[authority] = &endpoint;
  generation_.fetch_add(1, std::memory_order_release);
}

void VirtualNetwork::unbind(const std::string& authority) {
  std::lock_guard lock(mu_);
  endpoints_.erase(authority);
  generation_.fetch_add(1, std::memory_order_release);
}

Endpoint* VirtualNetwork::resolve(const std::string& authority) const {
  std::lock_guard lock(mu_);
  auto it = endpoints_.find(authority);
  return it == endpoints_.end() ? nullptr : it->second;
}

void VirtualNetwork::set_fault_policy(const std::string& authority,
                                      FaultPolicy policy) {
  std::lock_guard lock(mu_);
  faults_[authority] = FaultState{policy, std::mt19937_64(policy.seed)};
  fault_routes_.store(faults_.size(), std::memory_order_release);
}

void VirtualNetwork::clear_fault_policy(const std::string& authority) {
  std::lock_guard lock(mu_);
  faults_.erase(authority);
  fault_routes_.store(faults_.size(), std::memory_order_release);
}

void VirtualNetwork::apply_faults(const std::string& authority,
                                  WireMeter* meter) {
  static telemetry::Counter& injected =
      telemetry::MetricsRegistry::global().counter("net.faults.injected");
  if (fault_routes_.load(std::memory_order_acquire) == 0) return;
  const char* kind = nullptr;  // "partition" or "drop" when this exchange fails
  {
    std::lock_guard lock(mu_);
    auto it = faults_.find(authority);
    if (it == faults_.end()) return;
    FaultState& state = it->second;
    if (state.policy.added_latency_ms > 0.0 && meter) {
      meter->charge_ms(state.policy.added_latency_ms);
    }
    // A drop draws the top 53 bits of one RNG output -> [0, 1); written out
    // (instead of uniform_real_distribution) so sequences match on every stdlib.
    if (state.policy.partitioned) {
      kind = "partition";
    } else if (state.policy.drop_probability > 0.0 &&
               static_cast<double>(state.rng() >> 11) * 0x1.0p-53 <
                   state.policy.drop_probability) {
      kind = "drop";
    }
  }
  if (!kind) return;
  injected.add();
  telemetry::EventLog::global().emit(telemetry::Level::kWarn, "net.fabric",
                                     "injected fault",
                                     {{"authority", authority}, {"kind", kind}});
  throw NetworkError(std::string("injected ") + kind + " on route to " + authority);
}

void VirtualNetwork::charge_message(WireMeter* meter, std::size_t bytes) const {
  if (!meter) return;
  meter->add_message(bytes);
  meter->charge_ms(profile_.one_way_ms +
                   profile_.per_kb_ms * (static_cast<double>(bytes) / 1024.0));
}

void VirtualNetwork::charge_connect(WireMeter* meter) const {
  if (!meter) return;
  meter->add_connect();
  meter->charge_ms(profile_.connect_ms);
}

VirtualCaller::VirtualCaller(VirtualNetwork& net, Options options)
    : net_(net), options_(options), rng_(options.rng_seed) {}

void VirtualCaller::reset_connections() {
  std::lock_guard lock(mu_);
  channels_.clear();
  session_cache_.clear();
}

const VirtualCaller::Route& VirtualCaller::route_for(const std::string& address,
                                                     Route& uncached) {
  {
    std::lock_guard lock(mu_);
    if (auto it = routes_.find(address); it != routes_.end()) return it->second;
  }
  auto url = Url::parse(address);
  if (!url) throw NetworkError("malformed address: " + address);
  Route route{*url, url->authority()};
  std::lock_guard lock(mu_);
  if (routes_.size() < kMaxCachedRoutes) {
    return routes_.try_emplace(address, std::move(route)).first->second;
  }
  uncached = std::move(route);
  return uncached;
}

soap::Envelope VirtualCaller::call(const std::string& address,
                                   const soap::Envelope& request) {
  Route uncached;
  const Route& route = route_for(address, uncached);

  if (options_.transport != TransportKind::kSoapTcp) {
    return soap_http_response(
        exchange_octets(route, soap_http_request(route.url, request)), address);
  }
  // SOAP/TCP: the envelope octets behind a length prefix, no HTTP head.
  std::string body = request.to_xml();
  std::string frame = soap_tcp_prefix(body.size()) + body;
  return soap::Envelope::from_xml(soap_tcp_payload(exchange_octets(route, frame)));
}

std::string VirtualCaller::exchange_octets(const Route& route,
                                           const std::string& octets) {
  const std::string& authority = route.authority;

  // Scripted faults fire before anything else — a partitioned or lossy
  // route fails whether or not a server is listening. An injected failure
  // also tears down the pooled connection (and any TLS channel), so the
  // next attempt pays reconnection like a real broken socket would.
  try {
    net_.apply_faults(authority, options_.meter);
  } catch (const NetworkError&) {
    std::lock_guard lock(mu_);
    if (auto it = channels_.find(authority); it != channels_.end()) {
      it->second.connected = false;
      it->second.tls.reset();
    }
    throw;
  }

  bool https = options_.transport == TransportKind::kHttps;
  Endpoint* endpoint = nullptr;
  // Shared, so a reset of the channel by another thread (an injected
  // fault, reset_connections) cannot free it under this exchange.
  std::shared_ptr<TlsState> tls;
  {
    std::lock_guard lock(mu_);
    Channel& channel = channels_[authority];
    // Re-resolve only when a bind or unbind moved the generation since
    // this channel last resolved (read first: a bind racing the resolve
    // then leaves a stale generation, never a stale endpoint).
    std::uint64_t generation = net_.generation();
    if (!channel.endpoint || channel.generation != generation) {
      channel.endpoint = net_.resolve(authority);
      channel.generation = generation;
    }
    endpoint = channel.endpoint;
    if (!endpoint) throw NetworkError("no endpoint bound at " + authority);

    // Connection management: charge a connect when no pooled connection
    // exists (or pooling is disabled). For HTTPS a new connection also
    // means a TLS handshake (full or resumed).
    if (!options_.keep_alive || !channel.connected) {
      net_.charge_connect(options_.meter);
      channel.connected = true;
      if (https) channel.tls.reset();  // new connection: re-handshake
    }
    if (https) {
      if (!channel.tls) {
        const security::Credential* cred = endpoint->tls_credential();
        if (!cred) {
          throw NetworkError("endpoint " + authority + " does not support TLS");
        }
        if (!options_.anchor) {
          throw NetworkError("https transport requires a trust anchor");
        }
        security::TlsHandshake hs;
        try {
          hs = security::TlsHandshake::run(
              *options_.anchor, session_cache_, *cred, authority,
              common::RealClock::instance().now(), rng_);
        } catch (const security::SecurityError& err) {
          telemetry::EventLog::global().emit(
              telemetry::Level::kError, "net.tls", "TLS handshake failed",
              {{"authority", authority}, {"error", err.what()}});
          throw;
        }
        if (options_.meter) {
          options_.meter->add_handshake();
          // Handshake wire cost: round trips plus the octets moved.
          options_.meter->charge_ms(net_.profile().one_way_ms * 2 *
                                    hs.round_trips);
          net_.charge_message(options_.meter, hs.handshake_bytes);
        }
        auto state = std::make_shared<TlsState>();
        state->client = std::move(hs.client);
        state->server = std::move(hs.server);
        channel.tls = std::move(state);
      }
      tls = channel.tls;
    }
  }

  if (options_.transport == TransportKind::kSoapTcp) {
    // Unframe, enter the dispatch with the request the endpoint would have
    // seen over HTTP, frame the response body back.
    net_.charge_message(options_.meter, octets.size());
    HttpResponse response = dispatch(
        *endpoint, {.path = route.url.path, .host = authority, .headers = {},
                    .body = std::string(soap_tcp_payload(octets))});
    std::string frame = soap_tcp_prefix(response.body_size());
    response.append_body(frame);
    net_.charge_message(options_.meter, frame.size());
    return frame;
  }
  if (!https) {
    net_.charge_message(options_.meter, octets.size());
    std::string wire = serve_http(*endpoint, octets).serialize();
    net_.charge_message(options_.meter, wire.size());
    return wire;
  }

  // HTTPS: seal on the client, open on the server, handle, seal the
  // response, open on the client. All four crypto passes actually run.
  // Only this authority's channel is locked, so the endpoint may call out
  // to other authorities through this same caller while handling.
  std::lock_guard lock(tls->mu);
  std::vector<std::uint8_t> sealed = tls->client.seal(common::as_bytes(octets));
  net_.charge_message(options_.meter, sealed.size());
  std::vector<std::uint8_t> plain = tls->server.open(sealed);
  sealed = tls->server.seal(common::as_bytes(
      serve_http(*endpoint, {reinterpret_cast<const char*>(plain.data()), plain.size()})
          .serialize()));
  net_.charge_message(options_.meter, sealed.size());
  plain = tls->client.open(sealed);
  return std::string(plain.begin(), plain.end());
}

}  // namespace gs::net
