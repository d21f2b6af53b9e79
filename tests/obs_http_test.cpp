// The telemetry endpoint's hand-written HTTP handling under hostile input:
// request-line parsing fuzz, malformed / oversize / non-GET requests over
// real sockets, a client trickling bytes (stop() and queued scrapes must not
// wait on it), and concurrent scrapes while the registry is being updated.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {
namespace {

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `raw`, half-closes the connection, and returns everything the
/// server answers before it closes (empty when it just hangs up).
std::string raw_exchange(std::uint16_t port, const std::string& raw) {
  const int fd = connect_local(port);
  if (fd < 0) return "<connect failed>";
  std::size_t off = 0;
  while (off < raw.size()) {
    const ssize_t n =
        ::send(fd, raw.data() + off, raw.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;  // the server may hang up on an oversize request
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string resp;
  char buf[4096];
  for (;;) {
    struct pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 3000) <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

bool is_404_or_closed(const std::string& resp) {
  return resp.empty() || resp.rfind("HTTP/1.1 404", 0) == 0;
}

std::string random_bytes(Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.next_below(256));
  return s;
}

TEST(ObsHttp, RequestPathParsesOnlyGetRequestLines) {
  EXPECT_EQ(http_request_path("GET /metrics HTTP/1.1\r\n\r\n"), "/metrics");
  EXPECT_EQ(http_request_path("GET /vars?x=1&y HTTP/1.0\r\n"), "/vars");
  EXPECT_EQ(http_request_path("GET / HTTP/1.1"), "/");
  EXPECT_EQ(http_request_path("POST /metrics HTTP/1.1\r\n\r\n"), "");
  EXPECT_EQ(http_request_path("HEAD /metrics HTTP/1.1\r\n\r\n"), "");
  EXPECT_EQ(http_request_path("get /metrics HTTP/1.1\r\n\r\n"), "");
  EXPECT_EQ(http_request_path("GET/metrics\r\n\r\n"), "");
  EXPECT_EQ(http_request_path("GET /metrics"), "");  // no second space
  EXPECT_EQ(http_request_path("GET "), "");
  EXPECT_EQ(http_request_path(""), "");
  EXPECT_EQ(http_request_path(std::string("GET /a\0b HTTP/1.1", 17)),
            std::string("/a\0b", 4));
}

TEST(ObsHttp, RequestPathFuzzKeepsItsInvariants) {
  Rng rng(20261017);
  const std::string valid = "GET /metrics?q=1 HTTP/1.1\r\nHost: x\r\n\r\n";
  for (int i = 0; i < 20000; ++i) {
    std::string req;
    switch (i % 3) {
      case 0:  // pure noise
        req = random_bytes(rng, rng.next_below(64));
        break;
      case 1:  // a valid request with a few bytes flipped or cut
        req = valid;
        for (int f = 0; f < 3; ++f) {
          req[rng.next_below(req.size())] =
              static_cast<char>(rng.next_below(256));
        }
        req.resize(rng.next_below(req.size() + 1));
        break;
      default:  // the GET prefix followed by noise
        req = "GET " + random_bytes(rng, rng.next_below(32));
        break;
    }
    const std::string path = http_request_path(req);
    if (req.rfind("GET ", 0) != 0) {
      EXPECT_TRUE(path.empty()) << "non-GET request routed: " << req;
      continue;
    }
    // The path is the request text between "GET " and the next space, cut
    // at the query string.
    EXPECT_EQ(req.compare(4, path.size(), path), 0);
    EXPECT_EQ(path.find(' '), std::string::npos);
    EXPECT_EQ(path.find('?'), std::string::npos);
  }
}

TEST(ObsHttp, MalformedRequestsGet404OrAClosedConnection) {
  Telemetry tel;
  tel.metrics()->counter("io.reads").add(1);
  ObsServer server(tel.metrics(), tel.sampler(), tel.attributor(), tel.slo());
  ASSERT_TRUE(server.start());

  Rng rng(7);
  std::vector<std::string> requests = {
      "\r\n\r\n",
      "GARBAGE\r\n\r\n",
      "GET\r\n\r\n",
      "GET/metrics\r\n\r\n",
      "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
      "DELETE /healthz HTTP/1.1\r\n\r\n",
      "PUT /vars HTTP/1.1\r\n\r\n",
      "GET /metrics\r\n",              // never terminated: half-close ends it
      std::string(17 * 1024, 'A'),    // over 16 KiB, no terminator
      "GET /" + std::string(17 * 1024, 'm') + " HTTP/1.1\r\n\r\n",
      std::string("\0\0\0\0\r\n\r\n", 8),
  };
  for (int i = 0; i < 24; ++i) {
    std::string noise = random_bytes(rng, 1 + rng.next_below(512));
    if (noise.rfind("GET ", 0) == 0) noise[0] = 'X';
    requests.push_back(noise + (i % 2 == 0 ? "\r\n\r\n" : ""));
  }
  for (const std::string& req : requests) {
    const std::string resp = raw_exchange(server.port(), req);
    EXPECT_TRUE(is_404_or_closed(resp))
        << "request of " << req.size() << " bytes answered: "
        << resp.substr(0, 64);
  }

  // The endpoint survived all of it.
  HttpResponse ok;
  ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/healthz", &ok));
  EXPECT_EQ(ok.status, 200);
  server.stop();
}

/// A client that sends one request byte every `gap` until told to stop.
struct Trickler {
  std::atomic<bool> done{false};
  std::atomic<bool> connected{false};
  std::thread thread;

  void start(std::uint16_t port, std::chrono::milliseconds gap) {
    thread = std::thread([this, port, gap] {
      const int fd = connect_local(port);
      if (fd < 0) return;
      connected.store(true);
      const std::string req = "GET /metrics HTTP/1.1\r\nHost: slow\r\n";
      for (std::size_t i = 0; !done.load(); i = (i + 1) % req.size()) {
        if (::send(fd, &req[i], 1, MSG_NOSIGNAL) <= 0) break;
        std::this_thread::sleep_for(gap);
      }
      ::close(fd);
    });
  }
  ~Trickler() {
    done.store(true);
    if (thread.joinable()) thread.join();
  }
};

TEST(ObsHttp, StopReturnsPromptlyWhileAClientTrickles) {
  Telemetry tel;
  ObsServer server(tel.metrics(), tel.sampler(), tel.attributor(), tel.slo());
  ASSERT_TRUE(server.start());
  Trickler slow;
  slow.start(server.port(), std::chrono::milliseconds(100));
  while (!slow.connected.load()) std::this_thread::yield();
  // Let the accept thread pick the trickler up and start reading from it.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const double stop_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_LT(stop_s, 1.0);
  EXPECT_FALSE(server.running());
}

TEST(ObsHttp, ScrapeQueuedBehindATricklerIsAnswered) {
  Telemetry tel;
  tel.metrics()->counter("io.reads").add(5);
  ObsServer server(tel.metrics(), tel.sampler(), tel.attributor(), tel.slo());
  ASSERT_TRUE(server.start());
  Trickler slow;
  slow.start(server.port(), std::chrono::milliseconds(50));
  while (!slow.connected.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The trickler never finishes its request; the request deadline drops it
  // and the queued scrape gets its answer well inside the client timeout.
  HttpResponse resp;
  ASSERT_TRUE(obs_http_get("127.0.0.1", server.port(), "/metrics", &resp));
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("io_reads_total 5"), std::string::npos);
  server.stop();
}

TEST(ObsHttp, ConcurrentScrapesWhileTheRegistryMoves) {
  Telemetry tel;
  ObsServer server(tel.metrics(), tel.sampler(), tel.attributor(), tel.slo());
  ASSERT_TRUE(server.start());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Counter& c = tel.metrics()->counter("io.reads");
    ConcurrentHistogram& h = tel.metrics()->histogram("lat.us");
    for (std::uint64_t i = 0; !done.load(); ++i) {
      c.add();
      h.add_us(static_cast<double>(i % 1000));
      tel.metrics()->gauge("q.depth").set(static_cast<std::int64_t>(i % 7));
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  std::atomic<int> answered{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        HttpResponse resp;
        const char* path = (t + i) % 2 == 0 ? "/metrics" : "/vars";
        if (obs_http_get("127.0.0.1", server.port(), path, &resp) &&
            resp.status == 200) {
          answered.fetch_add(1);
        }
      }
    });
  }
  for (auto& s : scrapers) s.join();
  done.store(true);
  writer.join();
  EXPECT_EQ(answered.load(), 32);
  server.stop();
}

}  // namespace
}  // namespace gnndrive
