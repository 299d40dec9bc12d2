// Tests of the load generator's HTTP client against a minimal loopback
// server: connection reuse under keep-alive, Content-Length framing,
// "Connection: close", replies without a length, truncated replies, and
// the retry when the server dropped an idle connection.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "http_client.h"

namespace perfbench {
namespace {

// One server thread on an ephemeral loopback port. `reply(k)` is the raw
// reply to the k-th request (0-based) on a connection; a connection is
// closed after `per_connection` replies (never by the server when 0).
class TinyServer {
 public:
  TinyServer(std::function<std::string(int)> reply, int per_connection)
      : reply_(std::move(reply)), per_connection_(per_connection) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        listen(fd_, 16) != 0 ||
        getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ADD_FAILURE() << "cannot listen on loopback";
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { AcceptLoop(); });
  }
  ~TinyServer() {
    shutdown(fd_, SHUT_RDWR);  // Wakes the blocked accept.
    thread_.join();
    close(fd_);
  }
  TinyServer(const TinyServer&) = delete;
  TinyServer& operator=(const TinyServer&) = delete;
  int port() const { return port_; }
  int accepted() const { return accepted_.load(); }

 private:
  void AcceptLoop() {
    while (true) {
      const int client = accept(fd_, nullptr, nullptr);
      if (client < 0) return;
      ++accepted_;
      Serve(client);
      close(client);
    }
  }

  void Serve(int client) {
    std::string pending;
    char buf[4096];
    for (int k = 0; per_connection_ == 0 || k < per_connection_; ++k) {
      size_t end;
      while ((end = pending.find("\r\n\r\n")) == std::string::npos) {
        const ssize_t n = read(client, buf, sizeof(buf));
        if (n <= 0) return;
        pending.append(buf, static_cast<size_t>(n));
      }
      pending.erase(0, end + 4);
      const std::string wire = reply_(k);
      if (write(client, wire.data(), wire.size()) < 0) return;
    }
  }

  std::function<std::string(int)> reply_;
  int per_connection_;
  int fd_ = -1;
  int port_ = 0;
  std::atomic<int> accepted_{0};
  std::thread thread_;
};

std::string Reply(const std::string& body, const std::string& extra = "") {
  return "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\nx-S2RDF-trace-id: 00ab\r\n" +
         extra + "\r\n" + body;
}

const std::string kWire = BuildGetRequest("ASK {}");

TEST(HttpClientTest, RequestLeavesTheConnectionToTheServer) {
  EXPECT_EQ(kWire.find("Connection"), std::string::npos);
  EXPECT_EQ(kWire.rfind("GET /sparql?query=ASK%20%7B%7D HTTP/1.1\r\n", 0), 0u);
}

TEST(HttpClientTest, KeepAliveReusesOneConnection) {
  TinyServer server([](int k) { return Reply("body-" + std::to_string(k)); },
                    0);
  HttpConnection conn(server.port());
  for (int k = 0; k < 5; ++k) {
    HttpReply r = conn.Exchange(kWire, true);
    ASSERT_TRUE(r.transport_ok);
    EXPECT_EQ(r.status, 200);
    EXPECT_TRUE(r.has_trace_id);
    EXPECT_EQ(r.body, "body-" + std::to_string(k));
    EXPECT_EQ(r.body_bytes, r.body.size());
    EXPECT_TRUE(conn.open());
  }
  EXPECT_EQ(server.accepted(), 1);
}

TEST(HttpClientTest, ConnectionCloseReadsToEofThenReconnects) {
  TinyServer server([](int) { return Reply("abc", "Connection: close\r\n"); },
                    1);
  HttpConnection conn(server.port());
  for (int k = 0; k < 3; ++k) {
    HttpReply r = conn.Exchange(kWire, false);
    ASSERT_TRUE(r.transport_ok);
    EXPECT_EQ(r.body_bytes, 3u);
    EXPECT_TRUE(r.body.empty());
    EXPECT_FALSE(conn.open());
  }
  EXPECT_EQ(server.accepted(), 3);
}

TEST(HttpClientTest, DroppedIdleConnectionIsRetriedOnce) {
  // The server closes after each reply without saying so: every request
  // after the first finds a dead connection and goes out again.
  TinyServer server([](int) { return Reply("xyz"); }, 1);
  HttpConnection conn(server.port());
  for (int k = 0; k < 3; ++k) {
    HttpReply r = conn.Exchange(kWire, true);
    ASSERT_TRUE(r.transport_ok) << "request " << k;
    EXPECT_EQ(r.body, "xyz");
  }
  EXPECT_EQ(server.accepted(), 3);
}

TEST(HttpClientTest, ReplyWithoutLengthIsReadToEof) {
  TinyServer server(
      [](int) { return std::string("HTTP/1.1 200 OK\r\n\r\nabcdef"); }, 1);
  HttpConnection conn(server.port());
  HttpReply r = conn.Exchange(kWire, true);
  ASSERT_TRUE(r.transport_ok);
  EXPECT_FALSE(r.has_trace_id);
  EXPECT_EQ(r.body, "abcdef");
  EXPECT_FALSE(conn.open());
}

TEST(HttpClientTest, TruncatedBodyIsATransportFailure) {
  TinyServer server(
      [](int) {
        return std::string("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc");
      },
      1);
  HttpConnection conn(server.port());
  HttpReply r = conn.Exchange(kWire, false);
  EXPECT_FALSE(r.transport_ok);
  EXPECT_FALSE(conn.open());
  EXPECT_EQ(server.accepted(), 1);
}

}  // namespace
}  // namespace perfbench
