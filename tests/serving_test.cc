// Live-socket serving tests: the observability contract of the full
// HTTP path (acceptor -> epoll workers -> Handle), which the in-process
// Handle() tests cannot cover — response headers on the wire, admission
// metrics that only move when real connections queue, /statusz under a
// running pool. Suites skip (printing SKIPPED, which ctest maps to the
// Skipped state via SKIP_REGULAR_EXPRESSION) on hosts where binding a
// loopback listener fails.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "common/build_info.h"
#include "core/s2rdf.h"
#include "server/sparql_endpoint.h"

namespace s2rdf::server {
namespace {

std::string RoundTrip(int port, const std::string& request) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  (void)!write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return RoundTrip(port, "GET " + path +
                             " HTTP/1.1\r\nHost: localhost\r\n"
                             "Connection: close\r\n\r\n");
}

constexpr char kQueryPath[] =
    "/sparql?query=SELECT%20%2A%20WHERE%20%7B%20%3Fs%20%3Cfollows%3E%20"
    "%3Fo%20%7D";

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rdf::Graph g;
    g.AddIris("A", "follows", "B");
    g.AddIris("B", "follows", "C");
    auto db = core::S2Rdf::Create(std::move(g), core::S2RdfOptions());
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    endpoint_ = std::make_unique<SparqlEndpoint>(db_.get());
    auto port = endpoint_->Start(0);
    if (!port.ok()) {
      GTEST_SKIP() << "SKIPPED: cannot bind a loopback listener: "
                   << port.status().ToString();
    }
    port_ = *port;
  }

  void TearDown() override {
    if (endpoint_ != nullptr) endpoint_->Stop();
  }

  std::unique_ptr<core::S2Rdf> db_;
  std::unique_ptr<SparqlEndpoint> endpoint_;
  int port_ = 0;
};

// Extracts the X-S2RDF-Trace-Id header value from a raw response.
std::string TraceIdOf(const std::string& response) {
  const std::string key = "X-S2RDF-Trace-Id: ";
  size_t pos = response.find(key);
  if (pos == std::string::npos) return "";
  size_t end = response.find("\r\n", pos);
  return response.substr(pos + key.size(), end - pos - key.size());
}

TEST_F(ServingTest, EveryQueryResponseCarriesATraceIdOnTheWire) {
  std::string ok = Get(port_, kQueryPath);
  EXPECT_NE(ok.find("HTTP/1.1 200"), std::string::npos);
  std::string trace = TraceIdOf(ok);
  ASSERT_EQ(trace.size(), 16u) << ok;

  // Error responses carry one too: a failing request must stay
  // traceable.
  std::string bad = Get(port_, "/sparql?query=NOT%20SPARQL");
  EXPECT_NE(bad.find("HTTP/1.1 400"), std::string::npos);
  std::string bad_trace = TraceIdOf(bad);
  EXPECT_EQ(bad_trace.size(), 16u);
  EXPECT_NE(trace, bad_trace);

  // The same id indexes /debug/queries: client-side header and
  // server-side introspection agree end to end.
  std::string debug = Get(port_, "/debug/queries");
  EXPECT_NE(debug.find("trace=" + trace), std::string::npos);
  EXPECT_NE(debug.find("trace=" + bad_trace), std::string::npos);
}

TEST_F(ServingTest, DistinctQueriesMintDistinctTraceIds) {
  std::string a = TraceIdOf(Get(port_, kQueryPath));
  std::string b = TraceIdOf(Get(port_, kQueryPath));
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(b.size(), 16u);
  EXPECT_NE(a, b);
}

TEST_F(ServingTest, StatuszRendersBuildStoreAndPoolState) {
  // Serve one query first so the counters are non-trivial.
  EXPECT_NE(Get(port_, kQueryPath).find("HTTP/1.1 200"), std::string::npos);
  std::string statusz = Get(port_, "/statusz");
  EXPECT_NE(statusz.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(statusz.find(std::string("build: sha=") +
                         GetBuildInfo().git_sha),
            std::string::npos);
  EXPECT_NE(statusz.find("uptime_ms: "), std::string::npos);
  EXPECT_NE(statusz.find("store: tables="), std::string::npos);
  EXPECT_NE(statusz.find("queries: total=1"), std::string::npos);
  // The workers are running, so /statusz reports their saturation.
  EXPECT_NE(statusz.find("workers: total=4 busy="), std::string::npos);
  EXPECT_NE(statusz.find("task_pool: width="), std::string::npos);
}

TEST_F(ServingTest, HealthEchoesTheBuildSha) {
  std::string health = Get(port_, "/health");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(health.find(std::string("ok ") + GetBuildInfo().git_sha),
            std::string::npos);
}

TEST_F(ServingTest, AdmissionAndSaturationMetricsMoveUnderRealTraffic) {
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(Get(port_, kQueryPath).find("HTTP/1.1 200"),
              std::string::npos);
  }
  std::string metrics = Get(port_, "/metrics");
  // Build identity rides as an info metric.
  EXPECT_NE(metrics.find("s2rdf_build_info{sha=\""), std::string::npos);
  // Worker saturation gauge exists (its value is racy; presence is the
  // contract).
  EXPECT_NE(metrics.find("s2rdf_workers_busy"), std::string::npos);
  // Every admitted connection passed through the bounded queue, so the
  // admission-wait histogram observed at least the requests above plus
  // this /metrics request's own admission.
  size_t pos = metrics.find("s2rdf_admission_wait_seconds_count ");
  ASSERT_NE(pos, std::string::npos);
  long count = std::atol(
      metrics.c_str() + pos + sizeof("s2rdf_admission_wait_seconds_count"));
  EXPECT_GE(count, 4);
  // Task-pool queue instrumentation renders alongside.
  EXPECT_NE(metrics.find("s2rdf_task_pool_queue_depth"), std::string::npos);
  EXPECT_NE(metrics.find("s2rdf_task_pool_queue_wait_seconds_count"),
            std::string::npos);
}

}  // namespace
}  // namespace s2rdf::server
