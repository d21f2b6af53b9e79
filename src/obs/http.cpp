#include "obs/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "obs/attribution.hpp"
#include "obs/exposition.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "util/logging.hpp"

namespace gnndrive {

namespace {

constexpr int kPollTimeoutMs = 200;   ///< stop-flag check cadence
constexpr int kClientTimeoutMs = 2000;
/// Budget for one whole request, first byte to blank line.
constexpr int kRequestDeadlineMs = 1000;
constexpr std::size_t kMaxRequestBytes = 16384;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

std::string build_response(int status, const std::string& content_type,
                           const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + ' ' +
                    status_text(status) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads until the header terminator. One deadline covers the whole
/// request and `stop` is checked between polls, so a client trickling bytes
/// holds the accept thread for at most kRequestDeadlineMs.
bool read_request(int fd, const std::atomic<bool>& stop, std::string* out) {
  const TimePoint deadline =
      Clock::now() + std::chrono::milliseconds(kRequestDeadlineMs);
  char buf[2048];
  while (out->find("\r\n\r\n") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0 || stop.load(std::memory_order_acquire)) return false;
    struct pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(
        &pfd, 1, static_cast<int>(std::min<long long>(left, kPollTimeoutMs)));
    if (pr < 0) return false;
    if (pr == 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    out->append(buf, static_cast<std::size_t>(n));
    if (out->size() > kMaxRequestBytes) return false;
  }
  return true;
}

}  // namespace

std::string http_request_path(const std::string& request) {
  if (request.rfind("GET ", 0) != 0) return {};
  const std::size_t end = request.find(' ', 4);
  if (end == std::string::npos) return {};
  std::string path = request.substr(4, end - 4);
  const std::size_t q = path.find('?');
  if (q != std::string::npos) path.resize(q);
  return path;
}

ObsServer::ObsServer(MetricsRegistry* registry, TimeSeriesSampler* sampler,
                     BottleneckAttributor* attributor, SloWatcher* slo,
                     ObsServerConfig config)
    : registry_(registry),
      sampler_(sampler),
      attributor_(attributor),
      slo_(slo),
      config_(std::move(config)) {
  GD_CHECK_MSG(registry_ != nullptr, "ObsServer requires a MetricsRegistry");
}

ObsServer::~ObsServer() { stop(); }

bool ObsServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    log_structured(LogLevel::kWarn, "obs_server_bind_failed",
                   {kv("reason", "socket"), kv("errno", errno)});
    return false;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    log_structured(LogLevel::kWarn, "obs_server_bind_failed",
                   {kv("reason", "bad_host"), kv("host", config_.host)});
    return false;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    log_structured(LogLevel::kWarn, "obs_server_bind_failed",
                   {kv("reason", "bind_listen"), kv("errno", errno),
                    kv("port", static_cast<int>(config_.port))});
    return false;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  if (sampler_ != nullptr) sampler_->retain();
  thread_ = std::thread([this] { serve_loop(); });
  log_structured(LogLevel::kInfo, "obs_server_started",
                 {kv("host", config_.host),
                  kv("port", static_cast<int>(bound_port_))});
  return true;
}

void ObsServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
  if (sampler_ != nullptr) sampler_->release();
}

int ObsServer::handle(const std::string& path, std::string* body,
                      std::string* content_type) const {
  *content_type = "application/json";
  if (path == "/metrics") {
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    *body = render_prometheus(registry_->snapshot());
    return 200;
  }
  if (path == "/vars") {
    *body = "{\"vars\":";
    *body += render_vars_json(registry_->snapshot());
    *body += ",\"alerts\":";
    *body += slo_ != nullptr ? slo_->to_json() : "[]";
    *body += '}';
    return 200;
  }
  if (path == "/attribution") {
    if (attributor_ == nullptr) {
      *body = "{\"error\":\"attribution unavailable\"}";
      return 503;
    }
    if (attributor_->has_report()) {
      *body = attributor_->latest().to_json();
    } else if (sampler_ != nullptr) {
      *body = attributor_
                  ->attribute_window(*sampler_, config_.attribution_window_s)
                  .to_json();
    } else {
      *body = "{\"error\":\"no report yet\"}";
      return 503;
    }
    return 200;
  }
  if (path == "/healthz") {
    *content_type = "text/plain";
    *body = "ok\n";
    return 200;
  }
  if (path == "/readyz") {
    const auto snap = registry_->snapshot();
    std::int64_t pipeline_running = 0;
    std::int64_t serve_running = 0;
    for (const auto& [name, g] : snap.gauges) {
      if (name == "pipeline.running") pipeline_running = g.value;
      if (name == "serve.running") serve_running = g.value;
    }
    const bool ready = pipeline_running > 0 || serve_running > 0;
    *body = std::string("{\"ready\":") + (ready ? "true" : "false") +
            ",\"pipeline_running\":" + std::to_string(pipeline_running) +
            ",\"serve_running\":" + std::to_string(serve_running) + "}";
    return ready ? 200 : 503;
  }
  *content_type = "text/plain";
  *body = "not found\n";
  return 404;
}

void ObsServer::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, kPollTimeoutMs);
    if (pr <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    serve_client(client);
    ::close(client);
  }
}

void ObsServer::serve_client(int fd) const {
  std::string request;
  if (!read_request(fd, stop_, &request)) return;
  std::string body;
  std::string content_type;
  const int status = handle(http_request_path(request), &body, &content_type);
  send_all(fd, build_response(status, content_type, body));
}

bool obs_http_get(const std::string& host, std::uint16_t port,
                  const std::string& path, HttpResponse* out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }

  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: " + host +
      "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, request)) {
    ::close(fd);
    return false;
  }

  std::string raw;
  char buf[4096];
  for (;;) {
    struct pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, kClientTimeoutMs);
    if (pr <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
    if (raw.size() > (64u << 20)) break;
  }
  ::close(fd);

  if (raw.rfind("HTTP/1.", 0) != 0) return false;
  const std::size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > raw.size()) return false;
  out->status = std::atoi(raw.c_str() + sp + 1);
  const std::size_t header_end = raw.find("\r\n\r\n");
  out->body = header_end == std::string::npos ? std::string{}
                                              : raw.substr(header_end + 4);
  return out->status > 0;
}

}  // namespace gnndrive
