// HTTP/1.1 message framing.
//
// Real request/response serialization — the byte counts the simulated wire
// charges for are the actual octets an HTTP transport would move, and the
// same framing drives the real TCP server used by the examples.
//
// One framer (`frame_http`) sits behind both parsers and the socket reader.
// Header values are trimmed of optional whitespace. Content-Length is the
// only body framing: a strict decimal whose repeats must agree; any
// Transfer-Encoding is malformed (chunked coding is not implemented), and
// without Content-Length the body is empty. Servers answer malformed framing
// 400, an oversized head 431, an oversized body 413 (before reading it) and
// a request not in by kRequestDeadline 408.
#pragma once

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/buffer_chain.hpp"

namespace gs::net {

/// Case-insensitive ordering for header field names (RFC 7230 §3.2:
/// "Each header field consists of a case-insensitive field name").
struct HeaderNameLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept;
};

/// Header map keyed case-insensitively: a peer sending `content-length`
/// or `HOST` is as well-formed as one sending the canonical spelling.
using HeaderMap = std::map<std::string, std::string, HeaderNameLess>;

/// Framing limits: the head (start line through the blank line), the
/// announced body, and a server's wait for one whole request.
inline constexpr std::size_t kMaxHeadBytes = 64 * 1024;
inline constexpr std::size_t kMaxBodyBytes = 16 * 1024 * 1024;
inline constexpr std::chrono::milliseconds kRequestDeadline{2000};

enum class Framing { kIncomplete, kComplete, kMalformed, kHeadTooLarge, kBodyTooLarge };

/// How far a buffer gets toward one message. Once the head is in, `head`
/// and `size` count its octets and the whole message's (non-zero).
struct HttpFrame {
  Framing status = Framing::kIncomplete;
  std::size_t head = 0;
  std::size_t size = 0;
};
/// The one framer; fills `headers` (all but Content-Length) when given.
HttpFrame frame_http(std::string_view buffer, HeaderMap* headers = nullptr);

/// The head of a request with a `body_size`-octet body, as
/// HttpRequest::serialize writes it, with capacity reserved for the body.
std::string write_request_head(std::string_view method, std::string_view path,
                               std::string_view host, const HeaderMap& headers,
                               std::size_t body_size);

struct HttpRequest {
  std::string method = "POST";
  std::string path = "/";
  std::string host;
  HeaderMap headers;
  std::string body;

  /// Full request octets. Host and Content-Length are framing-owned: they
  /// are emitted from `host`/`body.size()`, and caller-set Content-Length
  /// or Transfer-Encoding in `headers` is ignored (never duplicated).
  std::string serialize() const;
  /// Parses the request at the front of `wire`; nullopt unless complete.
  static std::optional<HttpRequest> parse(std::string_view wire);
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  HeaderMap headers;
  std::string body;
  /// Zero-copy body: when non-empty it is the response body and `body` is
  /// ignored. Producers (the container's serialize path) fill it with
  /// segments that co-own their storage; transports write the segments
  /// without flattening. parse() always fills `body`.
  common::BufferChain body_chain;

  std::size_t body_size() const noexcept {
    return body_chain.empty() ? body.size() : body_chain.size();
  }
  /// The body octets regardless of representation (joins the chain).
  std::string body_str() const {
    return body_chain.empty() ? body : body_chain.join();
  }
  /// Appends the body octets to `out` regardless of representation.
  void append_body(std::string& out) const {
    body_chain.empty() ? void(out += body) : body_chain.join_into(out);
  }

  std::string serialize() const;
  /// Appends the full response octets to `out` as segments (writev-style).
  /// Segments may view into this response's storage: *this must outlive
  /// any use of `out`.
  void serialize_to(common::BufferChain& out) const;
  /// Parses the response at the front of `wire`; nullopt unless complete.
  static std::optional<HttpResponse> parse(std::string_view wire);

  static HttpResponse ok(std::string body, std::string content_type = "application/soap+xml");
  static HttpResponse error(int status, std::string reason, std::string body = "");
};

/// A response's status line and body, read in place: views into the octets
/// parse_response_head was given.
struct HttpResponseHead {
  int status = 0;
  std::string_view reason;
  std::string_view body;
};
/// Parses the response at the front of `wire` without copying its body;
/// nullopt unless complete. Fills `headers` when given.
std::optional<HttpResponseHead> parse_response_head(std::string_view wire,
                                                    HeaderMap* headers = nullptr);

/// URL split into scheme/host/port/path.
struct Url {
  std::string scheme;  // "http", "https", "soap.tcp"
  std::string host;
  int port = 0;  // 0 = scheme default
  std::string path = "/";

  /// "host" or "host:port" as used for connection pooling keys.
  std::string authority() const;
  std::string to_string() const;

  /// Parses e.g. "http://exec.vo.example:8080/ExecService";
  /// nullopt on malformed input.
  static std::optional<Url> parse(std::string_view url);
};

}  // namespace gs::net
