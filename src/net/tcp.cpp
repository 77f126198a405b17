#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <utility>

#include "telemetry/metrics.hpp"

namespace gs::net {
namespace {

// Reads one HTTP message into `buffer` until the framer has a verdict (or
// the peer closes), polling before each recv so a `deadline` bounds the
// whole read. Returns false when the deadline passed first.
bool read_message(int fd, std::string& buffer,
                  std::optional<std::chrono::steady_clock::time_point> deadline) {
  char chunk[16 * 1024];
  HttpFrame frame;
  for (;;) {
    // Once the head is in (frame.size > 0), wait for the whole body.
    if (buffer.size() >= frame.size) {
      frame = frame_http(buffer);
      if (frame.status != Framing::kIncomplete) return true;
    }
    if (deadline) {
      auto left = std::chrono::ceil<std::chrono::milliseconds>(
          *deadline - std::chrono::steady_clock::now());
      pollfd p{fd, POLLIN, 0};
      if (left.count() <= 0 || ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
        return false;
      }
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return true;  // EOF or error: the framer judges what arrived
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

struct Socket {
  int fd;
  ~Socket() { if (fd >= 0) ::close(fd); }
};

bool send_all(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

HttpServer::HttpServer(Endpoint& endpoint, std::uint16_t port, unsigned workers)
    : endpoint_(endpoint), workers_(workers) {
  workers_.attach_metrics(telemetry::MetricsRegistry::global(), "net.http.pool");
  Socket sock{::socket(AF_INET, SOCK_STREAM, 0)};
  if (sock.fd < 0) throw NetworkError("socket() failed");
  int one = 1;
  ::setsockopt(sock.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw NetworkError("bind() failed on port " + std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(sock.fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(sock.fd, 64) < 0) throw NetworkError("listen() failed");
  listen_fd_ = std::exchange(sock.fd, -1);
  acceptor_ = std::thread([this] { accept_loop(); });
}

HttpServer::~HttpServer() { stop(); }

std::string HttpServer::base_url() const {
  return "http://127.0.0.1:" + std::to_string(port_);
}

void HttpServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  workers_.drain();
}

void HttpServer::accept_loop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      continue;
    }
    workers_.submit([this, fd] { serve_connection(fd); });
  }
}

void HttpServer::serve_connection(int fd) {
  Socket sock{fd};
  std::string request;
  bool arrived = read_message(
      fd, request, std::chrono::steady_clock::now() + kRequestDeadline);
  if (!arrived || !request.empty()) {
    HttpResponse response = serve_http(endpoint_, request, !arrived);
    // Scatter write: the status line + headers, then the body segments
    // (serialized envelopes, shared parse buffers) straight from where
    // they live — the chain-backed fast path never flattens the response.
    common::BufferChain wire;
    response.serialize_to(wire);
    bool ok = true;
    wire.for_each([&](std::string_view seg) { ok = ok && send_all(fd, seg); });
  }
}

soap::Envelope TcpSoapCaller::call(const std::string& address,
                                   const soap::Envelope& request) {
  auto url = Url::parse(address);
  if (!url) throw NetworkError("malformed address: " + address);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(url->port == 0 ? 80 : url->port));
  if (::inet_pton(AF_INET, url->host.c_str(), &addr.sin_addr) != 1) {
    throw NetworkError("unsupported host (use a dotted-quad address): " + url->host);
  }

  Socket sock{::socket(AF_INET, SOCK_STREAM, 0)};
  if (sock.fd < 0) throw NetworkError("socket() failed");
  if (::connect(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw NetworkError("connect() to " + address + " failed");
  }
  if (!send_all(sock.fd, soap_http_request(*url, request))) {
    throw NetworkError("send to " + address + " failed");
  }
  ::shutdown(sock.fd, SHUT_WR);
  // Same size caps as the server, but no deadline: slow handlers are
  // legitimate.
  std::string response;
  read_message(sock.fd, response, std::nullopt);
  return soap_http_response(response, address);
}

}  // namespace gs::net
