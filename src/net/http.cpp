#include "net/http.hpp"

#include <algorithm>
#include <initializer_list>

#include "common/parse.hpp"

namespace gs::net {
namespace {

char ascii_lower(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c + ('a' - 'A')) : c;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  return std::ranges::equal(a, b, {}, ascii_lower, ascii_lower);
}

std::string_view trim_ows(std::string_view s) noexcept {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string_view::npos) return {};
  return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

// The one head writer: the `start` pieces are the start line (and a
// request's Host field); the caller's fields follow, then Content-Length.
// Framing is the writer's, so caller-set Content-Length or Transfer-Encoding
// is skipped. The head is built in one allocation with `room` more octets
// of capacity for a body the caller appends.
std::string write_head(std::initializer_list<std::string_view> start,
                       const HeaderMap& headers, size_t body_size, size_t room) {
  std::string length = std::to_string(body_size);
  size_t size = room + length.size() + sizeof("Content-Length: \r\n\r\n");
  for (std::string_view piece : start) size += piece.size();
  for (const auto& [name, value] : headers) size += name.size() + value.size() + 4;
  std::string head;
  head.reserve(size);
  for (std::string_view piece : start) head += piece;
  for (const auto& [name, value] : headers) {
    if (iequals(name, "Content-Length") || iequals(name, "Transfer-Encoding")) continue;
    head.append(name).append(": ").append(value).append("\r\n");
  }
  head.append("Content-Length: ").append(length).append("\r\n\r\n");
  return head;
}

std::string write_response_head(int status, std::string_view reason,
                                const HeaderMap& headers, size_t body_size,
                                size_t room) {
  return write_head({"HTTP/1.1 ", std::to_string(status), " ", reason, "\r\n"},
                    headers, body_size, room);
}

}  // namespace

HttpFrame frame_http(std::string_view wire, HeaderMap* headers) {
  const HttpFrame malformed{Framing::kMalformed};
  size_t blank = wire.substr(0, kMaxHeadBytes).find("\r\n\r\n");
  if (blank == std::string_view::npos) {
    return {wire.size() < kMaxHeadBytes ? Framing::kIncomplete : Framing::kHeadTooLarge};
  }
  std::optional<size_t> length;
  for (size_t pos = wire.find("\r\n") + 2, eol; pos < blank + 2; pos = eol + 2) {
    eol = wire.find("\r\n", pos);
    std::string_view line = wire.substr(pos, eol - pos);
    std::string_view name = line.substr(0, line.find(':'));
    if (name.empty() || name.size() == line.size() ||
        name.find_first_of(" \t") != std::string_view::npos) {
      return malformed;
    }
    std::string_view value = trim_ows(line.substr(name.size() + 1));
    if (iequals(name, "Content-Length")) {
      auto n = common::parse_number<size_t>(value);
      if (!n || (length && *length != *n)) return malformed;
      length = n;
    } else if (iequals(name, "Transfer-Encoding")) {
      return malformed;
    } else if (headers) {
      (*headers)[std::string(name)] = std::string(value);
    }
  }
  if (length.value_or(0) > kMaxBodyBytes) return {Framing::kBodyTooLarge};
  HttpFrame frame{Framing::kIncomplete, blank + 4, blank + 4 + length.value_or(0)};
  if (wire.size() >= frame.size) frame.status = Framing::kComplete;
  return frame;
}

bool HeaderNameLess::operator()(std::string_view a, std::string_view b) const noexcept {
  return std::ranges::lexicographical_compare(a, b, {}, ascii_lower, ascii_lower);
}

std::string write_request_head(std::string_view method, std::string_view path,
                               std::string_view host, const HeaderMap& headers,
                               size_t body_size) {
  return write_head({method, " ", path, " HTTP/1.1\r\nHost: ", host, "\r\n"},
                    headers, body_size, body_size);
}

std::string HttpRequest::serialize() const {
  std::string out = write_request_head(method, path, host, headers, body.size());
  out += body;
  return out;
}

std::optional<HttpRequest> HttpRequest::parse(std::string_view wire) {
  HttpRequest req;
  HttpFrame frame = frame_http(wire, &req.headers);
  if (frame.status != Framing::kComplete) return std::nullopt;
  // "METHOD SP path SP HTTP/1.x"; the path may itself hold spaces.
  std::string_view line = wire.substr(0, wire.find("\r\n"));
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  if (sp1 == 0 || sp2 == std::string_view::npos || sp2 <= sp1 + 1 ||
      !line.substr(sp2 + 1).starts_with("HTTP/1.")) {
    return std::nullopt;
  }
  req.method = std::string(line.substr(0, sp1));
  req.path = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  if (auto it = req.headers.find("Host"); it != req.headers.end()) {
    req.host = std::move(it->second);
    req.headers.erase(it);
  }
  req.body = std::string(wire.substr(frame.head, frame.size - frame.head));
  return req;
}

std::string HttpResponse::serialize() const {
  std::string out =
      write_response_head(status, reason, headers, body_size(), body_size());
  append_body(out);
  return out;
}

void HttpResponse::serialize_to(common::BufferChain& out) const {
  out.append(write_response_head(status, reason, headers, body_size(), 0));
  if (body_chain.empty()) {
    out.append_static(body);  // views *this; see header contract
  } else {
    out.append_chain(body_chain);
  }
}

std::optional<HttpResponseHead> parse_response_head(std::string_view wire,
                                                    HeaderMap* headers) {
  HttpFrame frame = frame_http(wire, headers);
  std::string_view line = wire.substr(0, wire.find("\r\n"));
  if (frame.status != Framing::kComplete || !line.starts_with("HTTP/1.1 ")) {
    return std::nullopt;
  }
  // "HTTP/1.1 SP 3-digit-code [SP reason]"
  std::string_view rest = line.substr(9);
  auto code = common::parse_number<int>(rest.substr(0, 3));
  if (!code || *code < 100 || (rest.size() > 3 && rest[3] != ' ')) {
    return std::nullopt;
  }
  return HttpResponseHead{*code, rest.size() > 3 ? rest.substr(4) : std::string_view{},
                          wire.substr(frame.head, frame.size - frame.head)};
}

std::optional<HttpResponse> HttpResponse::parse(std::string_view wire) {
  HttpResponse resp;
  auto head = parse_response_head(wire, &resp.headers);
  if (!head) return std::nullopt;
  resp.status = head->status;
  resp.reason = std::string(head->reason);
  resp.body = std::string(head->body);
  return resp;
}

HttpResponse HttpResponse::ok(std::string body, std::string content_type) {
  HttpResponse resp = error(200, "OK", std::move(body));
  resp.headers["Content-Type"] = std::move(content_type);
  return resp;
}

HttpResponse HttpResponse::error(int status, std::string reason, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.reason = std::move(reason);
  resp.body = std::move(body);
  return resp;
}

std::string Url::authority() const {
  if (port == 0) return host;
  return host + ":" + std::to_string(port);
}

std::string Url::to_string() const {
  return scheme + "://" + authority() + path;
}

std::optional<Url> Url::parse(std::string_view url) {
  size_t scheme_end = url.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0) return std::nullopt;
  Url out;
  out.scheme = std::string(url.substr(0, scheme_end));
  std::string_view rest = url.substr(scheme_end + 3);
  size_t path_start = rest.find('/');
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  if (authority.empty()) return std::nullopt;
  out.path = path_start == std::string_view::npos
                 ? "/"
                 : std::string(rest.substr(path_start));
  size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    auto port = common::parse_number<int>(authority.substr(colon + 1));
    if (!port || *port <= 0 || *port > 65535) return std::nullopt;
    out.port = *port;
    out.host = std::string(authority.substr(0, colon));
  } else {
    out.host = std::string(authority);
  }
  if (out.host.empty()) return std::nullopt;
  return out;
}

}  // namespace gs::net
