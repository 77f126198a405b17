// Real TCP HTTP/1.1 server and SOAP caller (POSIX sockets, localhost use).
//
// The virtual network drives the benchmarks; this pair exists so the
// example programs are genuinely network-facing — the quickstart stands up
// a container on 127.0.0.1 and talks to it over real sockets.
// Both ends read with the one framer and its size caps and share the
// virtual fabric's exchange code (serve_http, soap_http_request/response).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/threadpool.hpp"
#include "net/http.hpp"
#include "net/virtual_network.hpp"

namespace gs::net {

/// Blocking HTTP server on 127.0.0.1 dispatching to an Endpoint, one request
/// per connection. A worker waits at most kRequestDeadline for it (408).
class HttpServer {
 public:
  /// Binds and listens immediately; `port == 0` picks an ephemeral port.
  /// Throws NetworkError when the socket cannot be bound.
  HttpServer(Endpoint& endpoint, std::uint16_t port = 0, unsigned workers = 4);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (useful with ephemeral binding).
  std::uint16_t port() const noexcept { return port_; }
  /// Base URL, e.g. "http://127.0.0.1:45123".
  std::string base_url() const;

  /// Stops accepting and joins workers. Idempotent; also runs on destruction.
  void stop();

 private:
  void accept_loop();
  void serve_connection(int fd);

  Endpoint& endpoint_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  common::ThreadPool workers_;
};

/// SOAP caller over real sockets (one connection per call).
class TcpSoapCaller final : public SoapCaller {
 public:
  soap::Envelope call(const std::string& address,
                      const soap::Envelope& request) override;
};

}  // namespace gs::net
