// Tests for the network substrate: HTTP framing, URLs, the virtual network
// with its three transports, wire metering, and the real TCP server.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "net/tcp.hpp"
#include "net/virtual_network.hpp"
#include "soap/envelope.hpp"
#include "telemetry/metrics.hpp"

namespace gs::net {
namespace {

// --- HTTP framing --------------------------------------------------------------

TEST(Http, RequestRoundTrip) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/svc/Counter";
  req.host = "vo.example";
  req.headers["Content-Type"] = "application/soap+xml";
  req.body = "<xml/>";
  auto back = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->method, "POST");
  EXPECT_EQ(back->path, "/svc/Counter");
  EXPECT_EQ(back->host, "vo.example");
  EXPECT_EQ(back->headers.at("Content-Type"), "application/soap+xml");
  EXPECT_EQ(back->body, "<xml/>");
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse resp = HttpResponse::ok("body bytes");
  auto back = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, 200);
  EXPECT_EQ(back->body, "body bytes");
}

TEST(Http, ErrorResponse) {
  HttpResponse resp = HttpResponse::error(404, "Not Found", "missing");
  auto back = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, 404);
  EXPECT_EQ(back->reason, "Not Found");
}

TEST(Http, ContentLengthBoundsBody) {
  std::string wire =
      "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbodyEXTRA";
  auto resp = HttpResponse::parse(wire);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "body");
}

TEST(Http, RejectsMalformed) {
  EXPECT_FALSE(HttpRequest::parse("not http").has_value());
  EXPECT_FALSE(HttpRequest::parse("GET /\r\n\r\n").has_value());
  EXPECT_FALSE(HttpResponse::parse("HTTP/1.1\r\n\r\n").has_value());
  EXPECT_FALSE(
      HttpRequest::parse("POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nx")
          .has_value());
  // Strict Content-Length: trailing junk, a sign, overflow, and a repeat
  // that disagrees (the request-smuggling shape) are all malformed.
  for (const char* field :
       {"Content-Length: 4junk", "Content-Length: -1", "Content-Length: +4",
        "Content-Length: 99999999999999999999", "Content-Length:",
        "Content-Length: 10\r\nContent-Length: 2",
        "Content-Length: 4\r\ncontent-length: 5",
        "Transfer-Encoding: chunked", "Transfer-Encoding: identity",
        "Content-Length : 4", ": 4", "NoColon"}) {
    std::string head = std::string("\r\n") + field + "\r\n\r\nbody....";
    EXPECT_FALSE(HttpRequest::parse("POST / HTTP/1.1" + head)) << field;
    EXPECT_EQ(frame_http("POST / HTTP/1.1" + head).status, Framing::kMalformed)
        << field;
    EXPECT_FALSE(HttpResponse::parse("HTTP/1.1 200 OK" + head)) << field;
  }
  EXPECT_FALSE(HttpResponse::parse("HTTP/1.1 2000 OK\r\n\r\n"));
  EXPECT_FALSE(HttpResponse::parse("HTTP/1.1 -20 OK\r\n\r\n"));
  EXPECT_FALSE(HttpRequest::parse("POST / SPDY/3\r\n\r\n"));
}

TEST(Http, ContentLengthToleratesWhitespaceAndAgreeingRepeats) {
  for (const char* field :
       {"Content-Length: 4 ", "Content-Length:4", "Content-Length:\t4\t",
        "Content-Length: 4\r\nContent-Length: 4"}) {
    auto req = HttpRequest::parse(std::string("POST / HTTP/1.1\r\n") + field +
                                  "\r\n\r\nbodyEXTRA");
    ASSERT_TRUE(req.has_value()) << field;
    EXPECT_EQ(req->body, "body") << field;
  }
  auto req = HttpRequest::parse("POST / HTTP/1.1\r\nX-Pad:  padded \r\n\r\n");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->headers.at("X-Pad"), "padded");
}

// Without Content-Length a message has no body: trailing octets are not
// part of it (the same rule the socket reader applies).
TEST(Http, NoContentLengthMeansEmptyBody) {
  auto req = HttpRequest::parse("GET /x HTTP/1.1\r\nHost: h\r\n\r\ntrailing");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "");
  auto resp = HttpResponse::parse("HTTP/1.1 204 No Content\r\n\r\ntrailing");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "");
}

TEST(Http, FramerReportsProgressAndLimits) {
  const std::string wire = "POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  const std::size_t head = wire.size() - 4;
  // A prefix of the head: size unknown yet.
  HttpFrame frame = frame_http(wire.substr(0, head - 1));
  EXPECT_EQ(frame.status, Framing::kIncomplete);
  EXPECT_EQ(frame.size, 0u);
  // Head in, body partial: the whole size is known.
  frame = frame_http(wire.substr(0, head + 2));
  EXPECT_EQ(frame.status, Framing::kIncomplete);
  EXPECT_EQ(frame.size, wire.size());
  frame = frame_http(wire + "NEXT");
  EXPECT_EQ(frame.status, Framing::kComplete);
  EXPECT_EQ(frame.size, wire.size());

  std::string big_head = "POST / HTTP/1.1\r\nX-Big: " +
                         std::string(kMaxHeadBytes, 'a');
  EXPECT_EQ(frame_http(big_head).status, Framing::kHeadTooLarge);
  EXPECT_EQ(frame_http(big_head + "\r\n\r\n").status, Framing::kHeadTooLarge);
  std::string fits = "POST / HTTP/1.1\r\nX: ";
  fits += std::string(kMaxHeadBytes - fits.size() - 4, 'a') + "\r\n\r\n";
  EXPECT_EQ(frame_http(fits).status, Framing::kComplete);

  // An announced body over the cap is refused as soon as the head is in.
  EXPECT_EQ(frame_http("POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n")
                .status,
            Framing::kBodyTooLarge);
  EXPECT_EQ(frame_http("POST / HTTP/1.1\r\nContent-Length: " +
                       std::to_string(kMaxBodyBytes) + "\r\n\r\n")
                .status,
            Framing::kIncomplete);
}

// The head writer's octets are pinned: every serializer shares it, and the
// wire meter charges exactly these bytes.
TEST(Http, SerializedOctetsArePinned) {
  HttpRequest req;
  req.path = "/svc/Counter";
  req.host = "vo.example:8080";
  req.headers["SOAPAction"] = "urn:a";
  req.headers["Content-Type"] = "application/soap+xml";
  req.body = "<xml/>";
  EXPECT_EQ(req.serialize(),
            "POST /svc/Counter HTTP/1.1\r\n"
            "Host: vo.example:8080\r\n"
            "Content-Type: application/soap+xml\r\n"
            "SOAPAction: urn:a\r\n"
            "Content-Length: 6\r\n\r\n<xml/>");

  HttpResponse resp = HttpResponse::error(503, "Service Unavailable", "busy");
  resp.headers["Retry-After"] = "1";
  const std::string expected =
      "HTTP/1.1 503 Service Unavailable\r\n"
      "Retry-After: 1\r\n"
      "Content-Length: 4\r\n\r\nbusy";
  EXPECT_EQ(resp.serialize(), expected);
  common::BufferChain chain;
  resp.serialize_to(chain);
  EXPECT_EQ(chain.join(), expected);
  // A chain-backed body frames identically.
  HttpResponse chained = resp;
  chained.body.clear();
  chained.body_chain.append(std::string("bu"));
  chained.body_chain.append(std::string("sy"));
  EXPECT_EQ(chained.serialize(), expected);
}

TEST(Http, BinaryBodySurvives) {
  HttpRequest req;
  req.host = "h";
  req.body = std::string("\x00\x01\xff\r\n\r\nbinary", 12);
  auto back = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->body, req.body);
}

// RFC 7230 §3.2: header field names are case-insensitive. A peer that sends
// "content-length" or "hOsT" must still frame correctly.
TEST(Http, RequestHeaderNamesAreCaseInsensitive) {
  auto req = HttpRequest::parse(
      "POST /svc HTTP/1.1\r\n"
      "hOsT: node.example\r\n"
      "CONTENT-LENGTH: 4\r\n"
      "content-type: text/xml\r\n\r\n"
      "bodyEXTRA");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->host, "node.example");
  EXPECT_EQ(req->body, "body");
  // Lookups through the map match any spelling too.
  EXPECT_EQ(req->headers.at("Content-Type"), "text/xml");
}

TEST(Http, ResponseHeaderNamesAreCaseInsensitive) {
  auto resp = HttpResponse::parse(
      "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nokJUNK");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "ok");
}

// Counts case-insensitive occurrences of a header name in serialized wire.
size_t count_header(const std::string& wire, std::string lowered_name) {
  std::string haystack(wire);
  for (char& c : haystack) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c + ('a' - 'A'));
  }
  size_t count = 0;
  for (size_t pos = haystack.find(lowered_name); pos != std::string::npos;
       pos = haystack.find(lowered_name, pos + 1)) {
    ++count;
  }
  return count;
}

// A caller that pre-sets Content-Length (any spelling) must not produce a
// message with two Content-Length fields — the serializer owns framing.
TEST(Http, CallerSetContentLengthIsNotDuplicated) {
  HttpRequest req;
  req.host = "h";
  req.body = "hello";
  req.headers["content-length"] = "999";  // stale and wrong on purpose
  std::string wire = req.serialize();
  EXPECT_EQ(count_header(wire, "content-length"), 1u);
  auto back = HttpRequest::parse(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->body, "hello");

  HttpResponse resp = HttpResponse::ok("payload");
  resp.headers["Content-Length"] = "1";
  std::string resp_wire = resp.serialize();
  EXPECT_EQ(count_header(resp_wire, "content-length"), 1u);
  auto resp_back = HttpResponse::parse(resp_wire);
  ASSERT_TRUE(resp_back.has_value());
  EXPECT_EQ(resp_back->body, "payload");
}

// Seeded mutational fuzz over the framer, with a fixed budget: bit flips,
// truncations, splices between valid wires, and dictionary tokens aimed at
// the framing rules. Every mutant is either rejected or parses to a message
// whose serialization parses back to the same message.
// Returns whether either parser accepted `wire`.
bool expect_round_trip(const std::string& wire) {
  HttpFrame frame = frame_http(wire);
  auto req = HttpRequest::parse(wire);
  if (req) {
    EXPECT_EQ(frame.status, Framing::kComplete);
    EXPECT_LE(frame.size, wire.size());
    auto back = HttpRequest::parse(req->serialize());
    EXPECT_TRUE(back.has_value()) << wire;
    if (!back) return true;
    EXPECT_EQ(back->method, req->method);
    EXPECT_EQ(back->path, req->path);
    EXPECT_EQ(back->host, req->host);
    EXPECT_EQ(back->headers, req->headers);
    EXPECT_EQ(back->body, req->body);
  }
  auto resp = HttpResponse::parse(wire);
  if (resp) {
    EXPECT_EQ(frame.status, Framing::kComplete);
    auto back = HttpResponse::parse(resp->serialize());
    EXPECT_TRUE(back.has_value()) << wire;
    if (!back) return true;
    EXPECT_EQ(back->status, resp->status);
    EXPECT_EQ(back->reason, resp->reason);
    EXPECT_EQ(back->headers, resp->headers);
    EXPECT_EQ(back->body, resp->body);
  }
  return req || resp;
}

TEST(HttpFuzz, MutantsAreRejectedOrRoundTrip) {
  HttpRequest req;
  req.path = "/svc";
  req.host = "h:80";
  req.headers["Content-Type"] = "application/soap+xml";
  req.body = "<s:Envelope/>";
  HttpResponse resp = HttpResponse::ok("<ok/>");
  resp.headers["Retry-After"] = "1";
  const std::vector<std::string> seeds = {
      req.serialize(), resp.serialize(),
      "GET / HTTP/1.1\r\n\r\n",
      "HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n"};
  const std::vector<std::string> tokens = {
      "Content-Length:", "\r\n\r\n", "-1", "99999999999999999999",
      "Transfer-Encoding: chunked", "\r\n", " ", ":", "\t"};

  std::mt19937_64 rng(0xf4a3e);
  auto below = [&rng](std::size_t n) { return n == 0 ? 0 : rng() % n; };
  int accepted = 0;
  for (int i = 0; i < 50000; ++i) {
    std::string wire = seeds[below(seeds.size())];
    for (int m = 1 + static_cast<int>(below(4)); m > 0; --m) {
      std::size_t at = below(wire.size() + 1);
      switch (below(4)) {
        case 0:  // bit flip
          if (!wire.empty()) wire[below(wire.size())] ^= static_cast<char>(1 << below(8));
          break;
        case 1:  // truncation
          wire.resize(at);
          break;
        case 2: {  // splice in a slice of another seed
          const std::string& other = seeds[below(seeds.size())];
          std::size_t from = below(other.size());
          wire.insert(at, other, from, below(other.size() - from + 1));
          break;
        }
        default:  // dictionary token
          wire.insert(at, tokens[below(tokens.size())]);
      }
    }
    accepted += expect_round_trip(wire);
    if (HasFailure()) break;
  }
  // The budget reaches both verdicts, not only rejections.
  EXPECT_GT(accepted, 1000);
}

// --- URLs -----------------------------------------------------------------------

struct UrlCase {
  const char* name;
  const char* input;
  bool valid;
  const char* scheme;
  const char* host;
  int port;
  const char* path;
};

class UrlParse : public ::testing::TestWithParam<UrlCase> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, UrlParse,
    ::testing::Values(
        UrlCase{"Plain", "http://host/svc", true, "http", "host", 0, "/svc"},
        UrlCase{"WithPort", "http://host:8080/a/b", true, "http", "host", 8080,
                "/a/b"},
        UrlCase{"NoPath", "https://host", true, "https", "host", 0, "/"},
        UrlCase{"SoapTcp", "soap.tcp://node1:9000/Events", true, "soap.tcp",
                "node1", 9000, "/Events"},
        UrlCase{"NoScheme", "host/svc", false, "", "", 0, ""},
        UrlCase{"EmptyHost", "http:///svc", false, "", "", 0, ""},
        UrlCase{"BadPort", "http://host:abc/", false, "", "", 0, ""},
        UrlCase{"PortOutOfRange", "http://host:70000/", false, "", "", 0, ""},
        UrlCase{"PortTrailingJunk", "http://host:8080x/", false, "", "", 0, ""},
        UrlCase{"EmptyPort", "http://host:/", false, "", "", 0, ""},
        UrlCase{"EmptyHostWithPort", "http://:8080/", false, "", "", 0, ""},
        UrlCase{"NegativePort", "http://host:-1/", false, "", "", 0, ""},
        UrlCase{"PortZero", "http://host:0/", false, "", "", 0, ""}),
    [](const auto& info) { return info.param.name; });

TEST_P(UrlParse, ParsesOrRejects) {
  auto url = Url::parse(GetParam().input);
  EXPECT_EQ(url.has_value(), GetParam().valid);
  if (url) {
    EXPECT_EQ(url->scheme, GetParam().scheme);
    EXPECT_EQ(url->host, GetParam().host);
    EXPECT_EQ(url->port, GetParam().port);
    EXPECT_EQ(url->path, GetParam().path);
  }
}

TEST(Url, AuthorityIncludesPortWhenSet) {
  EXPECT_EQ(Url::parse("http://h:81/")->authority(), "h:81");
  EXPECT_EQ(Url::parse("http://h/")->authority(), "h");
}

// --- virtual network -------------------------------------------------------------

// Echo endpoint: returns the request body as the response body.
class EchoEndpoint final : public Endpoint {
 public:
  explicit EchoEndpoint(const security::Credential* cred = nullptr)
      : cred_(cred) {}
  HttpResponse handle(const HttpRequest& request) override {
    ++hits;
    soap::Envelope env = soap::Envelope::from_xml(request.body);
    soap::Envelope response;
    response.add_payload(xml::QName("urn:t", "Echo"))
        .set_text(env.payload() ? env.payload()->text() : "");
    return HttpResponse::ok(response.to_xml());
  }
  const security::Credential* tls_credential() const override { return cred_; }
  std::atomic<int> hits{0};  // HttpServer workers handle concurrently

 private:
  const security::Credential* cred_;
};

soap::Envelope make_request(const std::string& text) {
  soap::Envelope env;
  env.add_payload(xml::QName("urn:t", "In")).set_text(text);
  return env;
}

TEST(VirtualNetwork, RoutesByAuthority) {
  VirtualNetwork net;
  EchoEndpoint a, b;
  net.bind("a.example", a);
  net.bind("b.example", b);
  VirtualCaller caller(net, {});
  caller.call("http://a.example/svc", make_request("x"));
  caller.call("http://b.example/svc", make_request("y"));
  caller.call("http://b.example/svc", make_request("z"));
  EXPECT_EQ(a.hits.load(), 1);
  EXPECT_EQ(b.hits.load(), 2);
}

TEST(VirtualNetwork, UnboundAuthorityThrows) {
  VirtualNetwork net;
  VirtualCaller caller(net, {});
  EXPECT_THROW(caller.call("http://nowhere/svc", make_request("x")),
               NetworkError);
}

TEST(VirtualNetwork, MalformedAddressThrows) {
  VirtualNetwork net;
  VirtualCaller caller(net, {});
  EXPECT_THROW(caller.call("not-a-url", make_request("x")), NetworkError);
}

TEST(VirtualNetwork, HttpTransportEchoes) {
  VirtualNetwork net;
  EchoEndpoint ep;
  net.bind("h", ep);
  VirtualCaller caller(net, {.transport = TransportKind::kHttp});
  soap::Envelope reply = caller.call("http://h/svc", make_request("ping"));
  EXPECT_EQ(reply.payload()->text(), "ping");
}

TEST(VirtualNetwork, SoapTcpTransportEchoes) {
  VirtualNetwork net;
  EchoEndpoint ep;
  net.bind("h", ep);
  VirtualCaller caller(net, {.transport = TransportKind::kSoapTcp});
  soap::Envelope reply = caller.call("soap.tcp://h/svc", make_request("ping"));
  EXPECT_EQ(reply.payload()->text(), "ping");
}

TEST(VirtualNetwork, MeterCountsMessagesAndBytes) {
  VirtualNetwork net(NetworkProfile::colocated());
  EchoEndpoint ep;
  net.bind("h", ep);
  WireMeter meter;
  VirtualCaller caller(net, {.meter = &meter});
  caller.call("http://h/svc", make_request("x"));
  EXPECT_EQ(meter.messages(), 2);  // request + response
  EXPECT_GT(meter.bytes(), 100);
  EXPECT_EQ(meter.connects(), 1);
  EXPECT_GT(meter.simulated_ms(), 0.0);
}

TEST(VirtualNetwork, KeepAlivePoolsConnections) {
  VirtualNetwork net;
  EchoEndpoint ep;
  net.bind("h", ep);
  WireMeter meter;
  VirtualCaller caller(net, {.keep_alive = true, .meter = &meter});
  for (int i = 0; i < 5; ++i) caller.call("http://h/svc", make_request("x"));
  EXPECT_EQ(meter.connects(), 1);
}

TEST(VirtualNetwork, NoKeepAliveReconnectsEveryCall) {
  VirtualNetwork net;
  EchoEndpoint ep;
  net.bind("h", ep);
  WireMeter meter;
  VirtualCaller caller(net, {.keep_alive = false, .meter = &meter});
  for (int i = 0; i < 5; ++i) caller.call("http://h/svc", make_request("x"));
  EXPECT_EQ(meter.connects(), 5);
}

TEST(VirtualNetwork, DistributedProfileChargesMore) {
  EchoEndpoint ep;
  WireMeter co_meter, dist_meter;
  {
    VirtualNetwork net(NetworkProfile::colocated());
    net.bind("h", ep);
    VirtualCaller caller(net, {.meter = &co_meter});
    caller.call("http://h/svc", make_request("x"));
  }
  {
    VirtualNetwork net(NetworkProfile::distributed());
    net.bind("h", ep);
    VirtualCaller caller(net, {.meter = &dist_meter});
    caller.call("http://h/svc", make_request("x"));
  }
  EXPECT_GT(dist_meter.simulated_ms(), co_meter.simulated_ms() * 10);
}

TEST(VirtualNetwork, HttpsTransportWorksAndCachesSessions) {
  std::mt19937_64 rng(20);
  auto ca = security::CertificateAuthority::create("CN=CA", 512, rng);
  security::Credential server = ca.issue("CN=server", 512, rng, 0,
                                         std::numeric_limits<common::TimeMs>::max());
  VirtualNetwork net;
  EchoEndpoint ep(&server);
  net.bind("h", ep);
  WireMeter meter;
  VirtualCaller caller(net, {.transport = TransportKind::kHttps,
                             .keep_alive = true,
                             .meter = &meter,
                             .anchor = &ca.root()});
  soap::Envelope reply = caller.call("https://h/svc", make_request("tls"));
  EXPECT_EQ(reply.payload()->text(), "tls");
  EXPECT_EQ(meter.handshakes(), 1);
  caller.call("https://h/svc", make_request("again"));
  EXPECT_EQ(meter.handshakes(), 1);  // channel reused, no new handshake

  // Dropping connections forces a new handshake, resumed from the cache.
  caller.reset_connections();
  caller.call("https://h/svc", make_request("resumed"));
  EXPECT_EQ(meter.handshakes(), 2);
}

TEST(VirtualNetwork, HttpsWithoutServerCredentialFails) {
  std::mt19937_64 rng(21);
  auto ca = security::CertificateAuthority::create("CN=CA", 512, rng);
  VirtualNetwork net;
  EchoEndpoint ep;  // no TLS credential
  net.bind("h", ep);
  VirtualCaller caller(net,
                       {.transport = TransportKind::kHttps, .anchor = &ca.root()});
  EXPECT_THROW(caller.call("https://h/svc", make_request("x")), NetworkError);
}

TEST(VirtualNetwork, HttpsWithoutAnchorFails) {
  std::mt19937_64 rng(22);
  auto ca = security::CertificateAuthority::create("CN=CA", 512, rng);
  security::Credential server = ca.issue("CN=server", 512, rng, 0,
                                         std::numeric_limits<common::TimeMs>::max());
  VirtualNetwork net;
  EchoEndpoint ep(&server);
  net.bind("h", ep);
  VirtualCaller caller(net, {.transport = TransportKind::kHttps});
  EXPECT_THROW(caller.call("https://h/svc", make_request("x")), NetworkError);
}

// The client exchange maps replies the same way on every fabric: a 503
// carries its Retry-After; any other non-200 that is not a 500 fault
// envelope is a transport failure naming the status, whatever its body.
HttpResponse empty_not_found(const HttpRequest&) {
  return HttpResponse::error(404, "Not Found");
}
HttpResponse text_not_found(const HttpRequest&) {
  return HttpResponse::error(404, "Not Found", "no service at /svc");
}
HttpResponse text_bad_request(const HttpRequest&) {
  // The plain-text e.what() body ParseHandler and the consumers answer with.
  return HttpResponse::error(400, "Bad Request",
                             "expected '<' at line 1, column 1");
}
HttpResponse shed(const HttpRequest&) {
  HttpResponse resp = HttpResponse::error(503, "Service Unavailable");
  resp.headers["Retry-After"] = "1";
  return resp;
}

struct ErrorRoutes {
  std::string not_found;       // empty 404
  std::string text_not_found;  // 404 with a text body
  std::string bad_request;     // 400 with a text body
  std::string overloaded;      // 503 with Retry-After: 1
};

void expect_network_error(SoapCaller& caller, const std::string& address,
                          const std::string& status) {
  try {
    caller.call(address, make_request("x"));
    ADD_FAILURE() << status << " did not throw";
  } catch (const OverloadError&) {
    ADD_FAILURE() << status << " mapped to OverloadError";
  } catch (const NetworkError& err) {
    EXPECT_NE(std::string(err.what()).find("HTTP " + status), std::string::npos)
        << err.what();
  } catch (const std::exception& err) {
    ADD_FAILURE() << status << " threw a non-network error: " << err.what();
  }
}

void expect_error_mapping(SoapCaller& caller, const ErrorRoutes& routes) {
  expect_network_error(caller, routes.not_found, "404 Not Found");
  expect_network_error(caller, routes.text_not_found, "404 Not Found");
  expect_network_error(caller, routes.bad_request, "400 Bad Request");
  try {
    caller.call(routes.overloaded, make_request("x"));
    ADD_FAILURE() << "503 did not throw";
  } catch (const OverloadError& err) {
    EXPECT_EQ(err.retry_after_ms(), 1000);
  }
}

TEST(VirtualNetwork, ErrorStatusesMapToTypedErrors) {
  VirtualNetwork net;
  LambdaEndpoint missing(empty_not_found), missing_text(text_not_found),
      bad(text_bad_request), busy(shed);
  net.bind("missing", missing);
  net.bind("missing-text", missing_text);
  net.bind("bad", bad);
  net.bind("busy", busy);
  VirtualCaller caller(net, {});
  expect_error_mapping(caller, {"http://missing/svc", "http://missing-text/svc",
                                "http://bad/svc", "http://busy/svc"});
}

// A Retry-After hint counts only as delta-seconds, and only up to the cap:
// a negative, exponent or overflowing value cannot stall a retrying client.
TEST(VirtualNetwork, RetryAfterIsBoundedDeltaSeconds) {
  struct Case {
    const char* value;
    common::TimeMs ms;
  };
  for (const Case& c : {Case{"120", 120'000}, Case{"-5", 0}, Case{"1e3", 0},
                        Case{"9223372036854775807", kMaxRetryAfterMs}}) {
    EXPECT_EQ(retry_after_ms(c.value), c.ms) << c.value;
    VirtualNetwork net;
    LambdaEndpoint busy([&c](const HttpRequest&) {
      HttpResponse resp = HttpResponse::error(503, "Service Unavailable");
      resp.headers["Retry-After"] = c.value;
      return resp;
    });
    net.bind("busy", busy);
    VirtualCaller caller(net, {});
    try {
      caller.call("http://busy/svc", make_request("x"));
      ADD_FAILURE() << "503 did not throw";
    } catch (const OverloadError& err) {
      EXPECT_EQ(err.retry_after_ms(), c.ms) << c.value;
    }
  }
}

// A request the framer rejects is answered with a typed status on the
// virtual fabric too, and counted.
TEST(VirtualNetwork, ServerDispatchAnswersRejectsWithTypedStatus) {
  EchoEndpoint ep;
  auto& rejected = telemetry::MetricsRegistry::global().counter("net.http.rejected");
  std::uint64_t before = rejected.value();
  EXPECT_EQ(serve_http(ep, "garbage\r\n\r\n").status, 400);
  EXPECT_EQ(serve_http(ep, "POST / HTTP/1.1\r\nContent-Length: 4junk\r\n\r\nbody")
                .status,
            400);
  EXPECT_EQ(serve_http(ep, "POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n")
                .status,
            413);
  EXPECT_EQ(serve_http(ep, "POST / HTTP/1.1\r\nX: " + std::string(kMaxHeadBytes, 'a'))
                .status,
            431);
  EXPECT_EQ(serve_http(ep, "POST / HTTP/1.1\r\n", /*timed_out=*/true).status, 408);
  EXPECT_EQ(rejected.value() - before, 5u);
  EXPECT_EQ(ep.hits.load(), 0);
}

TEST(VirtualNetwork, UnbindRemovesEndpoint) {
  VirtualNetwork net;
  EchoEndpoint ep;
  net.bind("h", ep);
  net.unbind("h");
  VirtualCaller caller(net, {});
  EXPECT_THROW(caller.call("http://h/svc", make_request("x")), NetworkError);
}

// A caller caches its route to an authority and re-resolves only when a
// bind or unbind moves the network's generation. A caller thread whose
// route is warm reaches the newly bound endpoint on its first call after
// the rebind, and an unbind fails it.
TEST(VirtualNetwork, RebindTakesEffectOnAWarmCaller) {
  VirtualNetwork net;
  EchoEndpoint first, second;
  net.bind("h", first);
  // Steps: 1 caller warm, 2 rebound, 3 caller saw the rebind, 4 unbound.
  std::atomic<int> step{0};
  std::thread caller_thread([&] {
    VirtualCaller caller(net, {});
    caller.call("http://h/svc", make_request("warm"));
    step = 1;
    while (step.load() < 2) caller.call("http://h/svc", make_request("x"));
    int before = second.hits.load();
    caller.call("http://h/svc", make_request("after-rebind"));
    EXPECT_EQ(second.hits.load(), before + 1);
    step = 3;
    while (step.load() < 4) std::this_thread::yield();
    EXPECT_THROW(caller.call("http://h/svc", make_request("x")), NetworkError);
  });
  while (step.load() < 1) std::this_thread::yield();
  net.bind("h", second);
  step = 2;
  while (step.load() < 3) std::this_thread::yield();
  net.unbind("h");
  step = 4;
  caller_thread.join();
  EXPECT_GE(first.hits.load(), 1);
}

// The fault check is one atomic load while no route has a policy; a policy
// installed while a caller thread is already exchanging on a warm route
// fires on that thread's next call, and clearing it heals the route.
TEST(VirtualNetwork, FaultPolicyInstalledAfterWarmupFires) {
  VirtualNetwork net;
  EchoEndpoint ep;
  net.bind("h", ep);
  WireMeter meter;
  // Steps: 1 caller warm, 2 partitioned, 3 caller saw the fault, 4 cleared.
  std::atomic<int> step{0};
  std::thread caller_thread([&] {
    VirtualCaller caller(net, {.meter = &meter});
    caller.call("http://h/svc", make_request("warm"));
    step = 1;
    while (step.load() < 2) {
      try {
        caller.call("http://h/svc", make_request("x"));
      } catch (const NetworkError&) {
        // the policy landed mid-loop
      }
    }
    EXPECT_THROW(caller.call("http://h/svc", make_request("x")), NetworkError);
    step = 3;
    while (step.load() < 4) std::this_thread::yield();
    // Healed, and the failure dropped the pooled connection: one reconnect.
    std::int64_t connects = meter.connects();
    caller.call("http://h/svc", make_request("x"));
    EXPECT_EQ(meter.connects(), connects + 1);
  });
  while (step.load() < 1) std::this_thread::yield();
  net.set_fault_policy("h", {.partitioned = true});
  step = 2;
  while (step.load() < 3) std::this_thread::yield();
  net.clear_fault_policy("h");
  step = 4;
  caller_thread.join();
  EXPECT_EQ(meter.connects(), 2);
}

// --- real TCP server ---------------------------------------------------------------

TEST(TcpServer, ServesSoapOverRealSockets) {
  EchoEndpoint ep;
  HttpServer server(ep, 0, 2);
  ASSERT_GT(server.port(), 0);

  TcpSoapCaller caller;
  std::string address = server.base_url() + "/svc";
  soap::Envelope reply = caller.call(address, make_request("over tcp"));
  EXPECT_EQ(reply.payload()->text(), "over tcp");
  server.stop();
}

TEST(TcpServer, HandlesConcurrentClients) {
  EchoEndpoint ep;
  HttpServer server(ep, 0, 4);
  std::string address = server.base_url() + "/svc";

  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&address, &ok, i] {
      TcpSoapCaller caller;
      soap::Envelope reply =
          caller.call(address, make_request("c" + std::to_string(i)));
      if (reply.payload()->text() == "c" + std::to_string(i)) ok.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), 8);
}

TEST(TcpServer, ConnectToClosedPortFails) {
  std::uint16_t dead_port;
  {
    EchoEndpoint ep;
    HttpServer server(ep, 0, 1);
    dead_port = server.port();
    server.stop();
  }
  TcpSoapCaller caller;
  EXPECT_THROW(caller.call("http://127.0.0.1:" + std::to_string(dead_port) + "/",
                           make_request("x")),
               NetworkError);
}

// Raw client for the framing regressions: sends `octets` (half-closing
// when `close_write`), then reads until EOF or a 5 s receive timeout.
std::string raw_exchange(std::uint16_t port, const std::string& octets,
                         bool close_write = true) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  timeval five_s{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &five_s, sizeof(five_s));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  ::send(fd, octets.data(), octets.size(), MSG_NOSIGNAL);
  if (close_write) ::shutdown(fd, SHUT_WR);
  std::string reply;
  char chunk[4096];
  for (ssize_t n; (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

int status_of(const std::string& reply) {
  auto resp = HttpResponse::parse(reply);
  return resp ? resp->status : -1;
}

std::string envelope_request(const std::string& fields) {
  std::string body = make_request("raw").to_xml();
  return "POST /svc HTTP/1.1\r\nHost: h\r\n" + fields + std::to_string(body.size()) +
         "\r\n\r\n" + body;
}

TEST(TcpServer, FramesLowercaseContentLength) {
  EchoEndpoint ep;
  HttpServer server(ep, 0, 1);
  std::string reply = raw_exchange(server.port(), envelope_request("content-length: "));
  ASSERT_EQ(status_of(reply), 200) << reply;
  EXPECT_EQ(soap::Envelope::from_xml(HttpResponse::parse(reply)->body).payload()->text(),
            "raw");
}

TEST(TcpServer, IgnoresContentLengthDecoyHeaders) {
  EchoEndpoint ep;
  HttpServer server(ep, 0, 1);
  std::string reply = raw_exchange(
      server.port(), envelope_request("X-Content-Length: 3\r\nContent-Length: "));
  EXPECT_EQ(status_of(reply), 200) << reply;
}

TEST(TcpServer, RejectsOversizedHeadAndBody) {
  LambdaEndpoint ep([](const HttpRequest&) { return HttpResponse::ok("fine"); });
  HttpServer server(ep, 0, 1);
  EXPECT_EQ(status_of(raw_exchange(
                server.port(), "POST / HTTP/1.1\r\nX-Big: " +
                                   std::string(kMaxHeadBytes, 'a') + "\r\n\r\n")),
            431);
  // Answered from the head alone: the client never sends the body and keeps
  // its side open.
  EXPECT_EQ(status_of(raw_exchange(server.port(),
                                   "POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
                                   /*close_write=*/false)),
            413);
}

// An idle connection holds the only worker for at most the read deadline:
// it is answered 408, and the client queued behind it is then served.
TEST(TcpServer, IdleConnectionTimesOutAndFreesWorker) {
  EchoEndpoint ep;
  HttpServer server(ep, 0, 1);
  auto started = std::chrono::steady_clock::now();
  std::thread idle_client([&] {
    EXPECT_EQ(status_of(raw_exchange(server.port(), "", /*close_write=*/false)), 408);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  TcpSoapCaller caller;
  soap::Envelope reply = caller.call(server.base_url() + "/svc", make_request("next"));
  EXPECT_EQ(reply.payload()->text(), "next");
  idle_client.join();
  EXPECT_LE(std::chrono::steady_clock::now() - started,
            kRequestDeadline + std::chrono::seconds(1));
}

TEST(TcpServer, ErrorStatusesMapToTypedErrors) {
  LambdaEndpoint missing(empty_not_found), missing_text(text_not_found),
      bad(text_bad_request), busy(shed);
  HttpServer missing_server(missing, 0, 1), missing_text_server(missing_text, 0, 1),
      bad_server(bad, 0, 1), busy_server(busy, 0, 1);
  TcpSoapCaller caller;
  expect_error_mapping(caller, {missing_server.base_url() + "/svc",
                                missing_text_server.base_url() + "/svc",
                                bad_server.base_url() + "/svc",
                                busy_server.base_url() + "/svc"});
}

TEST(TcpServer, StopIsIdempotent) {
  EchoEndpoint ep;
  HttpServer server(ep, 0, 1);
  server.stop();
  server.stop();
}

}  // namespace
}  // namespace gs::net
