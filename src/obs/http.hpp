// Minimal in-process HTTP endpoint for the telemetry plane. One accept
// thread, blocking I/O with poll() timeouts, Connection: close — enough to
// be scraped by Prometheus or curl without pulling in any dependency. Each
// request must arrive whole within one second, so a client trickling bytes
// cannot hold the accept thread or stop().
//
// Routes:
//   /metrics      Prometheus text format 0.0.4 over the full registry
//   /vars         JSON: every counter/gauge/histogram + current SLO alerts
//   /attribution  latest published bottleneck report, else a live
//                 attribution over the sampler's trailing window
//   /healthz      200 while the server thread is alive
//   /readyz       200 iff a pipeline epoch or the serve engine is running
//                 (pipeline.running / serve.running gauges), else 503
//
// The server holds a sampler lease while listening, so scraping a process
// that is otherwise idle still sees a moving time-series.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "util/common.hpp"

namespace gnndrive {

class MetricsRegistry;
class TimeSeriesSampler;
class BottleneckAttributor;
class SloWatcher;

struct ObsServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0: ephemeral; read the bound one via port()
  /// Trailing window for the /attribution fallback report.
  double attribution_window_s = 2.0;
};

class ObsServer : NonCopyable {
 public:
  /// Only `registry` is required; null sampler/attributor/slo degrade the
  /// corresponding routes gracefully.
  ObsServer(MetricsRegistry* registry, TimeSeriesSampler* sampler,
            BottleneckAttributor* attributor, SloWatcher* slo,
            ObsServerConfig config = {});
  ~ObsServer();

  /// Binds, listens and spawns the accept thread. Returns false (with a
  /// structured warning) when the bind fails; safe to call once.
  bool start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Port actually bound (resolves port 0); 0 before start().
  std::uint16_t port() const { return bound_port_; }

  /// Routing logic, exposed so tests can exercise formats without sockets.
  /// Returns the HTTP status and fills `body`/`content_type`.
  int handle(const std::string& path, std::string* body,
             std::string* content_type) const;

 private:
  void serve_loop();
  void serve_client(int fd) const;

  MetricsRegistry* const registry_;
  TimeSeriesSampler* const sampler_;
  BottleneckAttributor* const attributor_;
  SloWatcher* const slo_;
  const ObsServerConfig config_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The path of a "GET <path> ..." request, query string stripped; empty
/// (routed to 404) for any other method or a malformed request line.
std::string http_request_path(const std::string& request);

/// Blocking HTTP GET against a local endpoint; returns false on connect /
/// I/O failure. Used by tests and the bench smoke scraper.
struct HttpResponse {
  int status = 0;
  std::string body;
};
bool obs_http_get(const std::string& host, std::uint16_t port,
                  const std::string& path, HttpResponse* out);

}  // namespace gnndrive
