#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/task_pool.h"
#include "core/s2rdf.h"
#include "server/http.h"
#include "server/sparql_endpoint.h"

namespace s2rdf::server {
namespace {

// --- HTTP plumbing --------------------------------------------------------

TEST(HttpTest, ParseGetRequest) {
  auto request = ParseHttpRequest(
      "GET /sparql?query=SELECT%20*&x=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Accept: application/json\r\n"
      "\r\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/sparql");
  EXPECT_EQ(request->query_string, "query=SELECT%20*&x=1");
  EXPECT_EQ(request->Header("accept"), "application/json");
  EXPECT_EQ(request->Header("host"), "localhost");
  EXPECT_EQ(request->Header("missing"), "");
}

TEST(HttpTest, ParsePostWithBody) {
  auto request = ParseHttpRequest(
      "POST /sparql HTTP/1.1\r\n"
      "Content-Type: application/x-www-form-urlencoded\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "query=ASK{}");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, "POST");
  EXPECT_EQ(request->body, "query=ASK{}");
}

TEST(HttpTest, RejectsGarbage) {
  EXPECT_FALSE(ParseHttpRequest("not http").ok());
  EXPECT_FALSE(ParseHttpRequest("GET\r\n\r\n").ok());
}

TEST(HttpTest, PercentDecode) {
  EXPECT_EQ(PercentDecode("a%20b+c%3F"), "a b c?");
  EXPECT_EQ(PercentDecode("100%"), "100%");  // Dangling % passes through.
  EXPECT_EQ(PercentDecode("%zz"), "%zz");    // Bad hex passes through.
}

TEST(HttpTest, ParseQueryString) {
  auto params = ParseQueryString("query=SELECT%20%2A&format=json&flag");
  EXPECT_EQ(params["query"], "SELECT *");
  EXPECT_EQ(params["format"], "json");
  EXPECT_TRUE(params.contains("flag"));
}

TEST(HttpTest, ResponseSerialization) {
  HttpResponse response;
  response.status_code = 404;
  response.body = "nope";
  std::string wire = response.Serialize();
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 4"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\nnope"), std::string::npos);
}

// Fed one byte at a time, the stream frames a pipelined POST (body waited
// for by Content-Length) and the GET behind it, in order.
TEST(HttpTest, RequestStreamFramesPipelinedRequestsByteByByte) {
  const std::string wire =
      "POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
      "GET /health HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
  HttpRequestStream stream;
  std::vector<HttpRequest> requests;
  for (char c : wire) {
    stream.Append(&c, 1);
    HttpRequest request;
    HttpResponse refusal;
    HttpRequestStream::Frame frame = stream.Next(&request, &refusal);
    ASSERT_NE(frame, HttpRequestStream::Frame::kRefused) << refusal.body;
    if (frame == HttpRequestStream::Frame::kRequest) {
      requests.push_back(std::move(request));
    }
  }
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].path, "/ingest");
  EXPECT_EQ(requests[0].body, "hello");
  EXPECT_TRUE(requests[0].KeepAlive());
  EXPECT_EQ(requests[1].path, "/health");
  EXPECT_EQ(requests[1].version, "HTTP/1.0");
  EXPECT_TRUE(requests[1].KeepAlive());
  EXPECT_EQ(stream.buffered(), 0u);
}

// --- Endpoint request handling ----------------------------------------------

class EndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rdf::Graph g;
    g.AddIris("A", "follows", "B");
    g.AddIris("B", "follows", "C");
    g.AddIris("A", "likes", "I1");
    auto db = core::S2Rdf::Create(std::move(g), core::S2RdfOptions());
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    endpoint_ = std::make_unique<SparqlEndpoint>(db_.get());
  }

  HttpResponse Get(const std::string& target,
                   const std::string& accept = "") {
    HttpRequest request;
    request.method = "GET";
    size_t question = target.find('?');
    request.path = target.substr(0, question);
    if (question != std::string::npos) {
      request.query_string = target.substr(question + 1);
    }
    if (!accept.empty()) request.headers["accept"] = accept;
    return endpoint_->Handle(request);
  }

  std::unique_ptr<core::S2Rdf> db_;
  std::unique_ptr<SparqlEndpoint> endpoint_;
};

TEST_F(EndpointTest, SelectQueryReturnsJson) {
  HttpResponse response = Get(
      "/sparql?query=SELECT%20%2A%20WHERE%20%7B%20%3Fs%20%3Cfollows%3E%20"
      "%3Fo%20%7D");
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.content_type, "application/sparql-results+json");
  EXPECT_NE(response.body.find("\"bindings\""), std::string::npos);
  EXPECT_NE(response.body.find("\"type\": \"uri\""), std::string::npos);
}

TEST_F(EndpointTest, AcceptHeaderSelectsFormat) {
  std::string target =
      "/sparql?query=SELECT%20%2A%20WHERE%20%7B%20%3Fs%20%3Cfollows%3E%20"
      "%3Fo%20%7D";
  EXPECT_EQ(Get(target, "application/sparql-results+xml").content_type,
            "application/sparql-results+xml");
  EXPECT_EQ(Get(target, "text/csv").content_type,
            "text/csv; charset=utf-8");
  EXPECT_EQ(Get(target, "text/tab-separated-values").content_type,
            "text/tab-separated-values; charset=utf-8");
}

TEST_F(EndpointTest, PostFormAndRawQuery) {
  HttpRequest form;
  form.method = "POST";
  form.path = "/sparql";
  form.headers["content-type"] = "application/x-www-form-urlencoded";
  form.body = "query=ASK%20%7B%20%3CA%3E%20%3Cfollows%3E%20%3CB%3E%20%7D";
  HttpResponse r1 = endpoint_->Handle(form);
  EXPECT_EQ(r1.status_code, 200);
  EXPECT_NE(r1.body.find("true"), std::string::npos);

  HttpRequest raw;
  raw.method = "POST";
  raw.path = "/sparql";
  raw.headers["content-type"] = "application/sparql-query";
  raw.body = "ASK { <A> <follows> <C> }";
  HttpResponse r2 = endpoint_->Handle(raw);
  EXPECT_EQ(r2.status_code, 200);
  EXPECT_NE(r2.body.find("false"), std::string::npos);
}

TEST_F(EndpointTest, ErrorPaths) {
  EXPECT_EQ(Get("/nope").status_code, 404);
  EXPECT_EQ(Get("/sparql").status_code, 400);  // Missing query param.
  EXPECT_EQ(Get("/sparql?query=NOT%20SPARQL").status_code, 400);
  HttpRequest bad_type;
  bad_type.method = "POST";
  bad_type.path = "/sparql";
  bad_type.headers["content-type"] = "application/weird";
  EXPECT_EQ(endpoint_->Handle(bad_type).status_code, 415);
  HttpRequest put;
  put.method = "PUT";
  put.path = "/sparql";
  EXPECT_EQ(endpoint_->Handle(put).status_code, 405);
}

TEST_F(EndpointTest, ConstructReturnsNTriples) {
  HttpRequest raw;
  raw.method = "POST";
  raw.path = "/sparql";
  raw.headers["content-type"] = "application/sparql-query";
  raw.body = "CONSTRUCT { ?y <rev> ?x . } WHERE { ?x <follows> ?y . }";
  HttpResponse response = endpoint_->Handle(raw);
  EXPECT_EQ(response.status_code, 200);
  EXPECT_NE(response.content_type.find("application/n-triples"),
            std::string::npos);
  EXPECT_NE(response.body.find("<B> <rev> <A> ."), std::string::npos);
}

TEST_F(EndpointTest, StatusPage) {
  HttpResponse response = Get("/");
  EXPECT_EQ(response.status_code, 200);
  EXPECT_NE(response.body.find("S2RDF"), std::string::npos);
}

// --- Live socket round trip -----------------------------------------------

TEST_F(EndpointTest, SocketRoundTrip) {
  auto port = endpoint_->Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string request =
      "POST /sparql HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Connection: close\r\n"
      "Content-Type: application/sparql-query\r\n"
      "Content-Length: 35\r\n"
      "\r\n"
      "SELECT * WHERE { ?s <likes> ?o . }\n";
  ASSERT_EQ(write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  endpoint_->Stop();

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/sparql-results+json"),
            std::string::npos);
  EXPECT_NE(response.find("I1"), std::string::npos);
}

// --- Health, metrics and request parameters -------------------------------

TEST_F(EndpointTest, HealthEndpoint) {
  HttpResponse response = Get("/health");
  EXPECT_EQ(response.status_code, 200);
  // "ok <git-sha>": liveness plus which build is answering.
  EXPECT_EQ(response.body.rfind("ok ", 0), 0u);
  EXPECT_NE(response.body, "ok \n") << "missing build sha";
}

TEST_F(EndpointTest, MetricsEndpoint) {
  // Serve one query so the counters move.
  EXPECT_EQ(Get("/sparql?query=SELECT%20%2A%20WHERE%20%7B%20%3Fs%20"
                "%3Cfollows%3E%20%3Fo%20%7D")
                .status_code,
            200);
  EXPECT_EQ(Get("/sparql?query=NOT%20SPARQL").status_code, 400);
  HttpResponse response = Get("/metrics");
  EXPECT_EQ(response.status_code, 200);
  EXPECT_NE(response.body.find("s2rdf_queries_total 2"), std::string::npos);
  EXPECT_NE(response.body.find("s2rdf_queries_failed_total 1"),
            std::string::npos);
  EXPECT_NE(response.body.find("s2rdf_queries_rejected_total 0"),
            std::string::npos);
  EXPECT_NE(response.body.find("s2rdf_exec_input_tuples_total"),
            std::string::npos);
  EXPECT_NE(response.body.find("s2rdf_catalog_materialized_tables"),
            std::string::npos);
  EXPECT_NE(response.body.find("s2rdf_task_pool_threads"), std::string::npos);
}

TEST_F(EndpointTest, LimitParamTruncatesResults) {
  // The fixture graph has two <follows> rows; limit=1 keeps one.
  std::string target =
      "/sparql?query=SELECT%20%2A%20WHERE%20%7B%20%3Fs%20%3Cfollows%3E%20"
      "%3Fo%20%7D&limit=1";
  HttpResponse response = Get(target, "text/csv");
  EXPECT_EQ(response.status_code, 200);
  // Header line + one data row.
  EXPECT_EQ(std::count(response.body.begin(), response.body.end(), '\n'), 2);
}

TEST_F(EndpointTest, MalformedParamsReturn400) {
  std::string query =
      "query=SELECT%20%2A%20WHERE%20%7B%20%3Fs%20%3Cfollows%3E%20%3Fo%20%7D";
  EXPECT_EQ(Get("/sparql?" + query + "&timeout=soon").status_code, 400);
  EXPECT_EQ(Get("/sparql?" + query + "&timeout=-5").status_code, 400);
  EXPECT_EQ(Get("/sparql?" + query + "&limit=many").status_code, 400);
  EXPECT_EQ(Get("/sparql?" + query + "&optimizer=magic").status_code, 400);
}

TEST_F(EndpointTest, OptimizerParamSelectsOptimizeStage) {
  std::string query =
      "query=SELECT%20%2A%20WHERE%20%7B%20%3Fs%20%3Cfollows%3E%20%3Fo%20%7D";
  // explain=plan: compile only, report the Optimize stage and plan.
  HttpResponse paper = Get("/sparql?" + query + "&explain=plan");
  EXPECT_EQ(paper.status_code, 200);
  EXPECT_NE(paper.body.find("optimizer: paper"), std::string::npos)
      << paper.body;
  EXPECT_NE(paper.body.find("fingerprint:"), std::string::npos);

  HttpResponse cost = Get("/sparql?" + query + "&explain=plan&optimizer=cost");
  EXPECT_EQ(cost.status_code, 200);
  EXPECT_NE(cost.body.find("optimizer: cost"), std::string::npos) << cost.body;

  // Both modes answer the actual query identically.
  EXPECT_EQ(Get("/sparql?" + query + "&optimizer=cost", "text/csv").body,
            Get("/sparql?" + query + "&optimizer=paper", "text/csv").body);

  // /debug/queries records the mode and plan fingerprint.
  HttpResponse debug = Get("/debug/queries");
  EXPECT_EQ(debug.status_code, 200);
  EXPECT_NE(debug.body.find("opt=cost"), std::string::npos) << debug.body;
  EXPECT_NE(debug.body.find("plan="), std::string::npos);
}

TEST(EndpointTimeoutTest, TimeoutParamReturns408) {
  // An unconstrained 1200x1200 cross product cannot finish in 1 ms.
  rdf::Graph g;
  for (int i = 0; i < 1200; ++i) {
    g.AddIris("A" + std::to_string(i), "p", "B" + std::to_string(i));
    g.AddIris("C" + std::to_string(i), "q", "D" + std::to_string(i));
  }
  auto db = core::S2Rdf::Create(std::move(g), core::S2RdfOptions());
  ASSERT_TRUE(db.ok());
  SparqlEndpoint endpoint(db->get());

  HttpRequest request;
  request.method = "POST";
  request.path = "/sparql";
  request.query_string = "timeout=1";
  request.headers["content-type"] = "application/sparql-query";
  request.body = "SELECT * WHERE { ?a <p> ?b . ?c <q> ?d . }";
  HttpResponse response = endpoint.Handle(request);
  EXPECT_EQ(response.status_code, 408);
  EXPECT_NE(response.body.find("deadline_exceeded"), std::string::npos);
}

TEST(EndpointTimeoutTest, MaxTimeoutCapsUnboundedRequests) {
  rdf::Graph g;
  for (int i = 0; i < 1200; ++i) {
    g.AddIris("A" + std::to_string(i), "p", "B" + std::to_string(i));
    g.AddIris("C" + std::to_string(i), "q", "D" + std::to_string(i));
  }
  auto db = core::S2Rdf::Create(std::move(g), core::S2RdfOptions());
  ASSERT_TRUE(db.ok());
  EndpointOptions options;
  options.max_timeout_ms = 1;  // Server-side ceiling.
  SparqlEndpoint endpoint(db->get(), options);

  HttpRequest request;
  request.method = "POST";
  request.path = "/sparql";
  request.headers["content-type"] = "application/sparql-query";
  request.body = "SELECT * WHERE { ?a <p> ?b . ?c <q> ?d . }";
  EXPECT_EQ(endpoint.Handle(request).status_code, 408);
}

// --- Admission control ----------------------------------------------------

namespace {

// Sends `request` and returns the raw response (blocking).
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

}  // namespace

TEST(EndpointSaturationTest, OverloadedServerReturns503) {
  rdf::Graph g;
  g.AddIris("A", "follows", "B");
  auto db = core::S2Rdf::Create(std::move(g), core::S2RdfOptions());
  ASSERT_TRUE(db.ok());

  // One worker, one queue slot; the hook parks the worker so we can
  // saturate deterministically.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  int parked = 0;
  EndpointOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.worker_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++parked;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  SparqlEndpoint endpoint(db->get(), options);
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const std::string request =
      "GET /sparql?query=ASK%20%7B%20%3CA%3E%20%3Cfollows%3E%20%3CB%3E%20%7D"
      " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";

  // Releases the worker and joins the clients on every path out of the
  // test, so a failed ASSERT fails it instead of leaving the endpoint's
  // Stop() waiting for the parked worker forever.
  std::thread first;
  std::thread second;
  auto release_worker = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    if (first.joinable()) first.join();
    if (second.joinable()) second.join();
  };
  struct OnExit {
    std::function<void()> run;
    ~OnExit() { run(); }
  } release_on_exit{release_worker};

  // Connection 1 occupies the worker (blocked in the hook).
  first = std::thread([&] {
    EXPECT_NE(RoundTrip(*port, request).find("HTTP/1.1 200"),
              std::string::npos);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return parked == 1; }));
  }

  // Connection 2 fills the queue slot.
  second = std::thread([&] {
    EXPECT_NE(RoundTrip(*port, request).find("HTTP/1.1 200"),
              std::string::npos);
  });
  for (int i = 0; i < 5000 && endpoint.Stats().queue_depth == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(endpoint.Stats().queue_depth, 1u);

  // Connection 3 exceeds capacity: rejected with 503 while the others
  // are still pending.
  std::string rejected = RoundTrip(*port, request);
  EXPECT_NE(rejected.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos);
  EXPECT_NE(rejected.find("resource_exhausted"), std::string::npos);
  EXPECT_EQ(endpoint.Stats().queries_rejected_total, 1u);

  // Release the worker: both admitted connections complete.
  release_worker();
  endpoint.Stop();
  EXPECT_EQ(endpoint.Stats().queries_total, 2u);
}

// Many concurrent clients against a small pool: every connection gets
// either a definitive answer or a clean 503, and the server survives.
TEST(EndpointSaturationTest, ConcurrentClientsAllGetResponses) {
  rdf::Graph g;
  g.AddIris("A", "follows", "B");
  g.AddIris("B", "follows", "C");
  auto db = core::S2Rdf::Create(std::move(g), core::S2RdfOptions());
  ASSERT_TRUE(db.ok());
  EndpointOptions options;
  options.num_workers = 2;
  options.queue_capacity = 4;
  SparqlEndpoint endpoint(db->get(), options);
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok());

  const std::string request =
      "GET /sparql?query=SELECT%20%2A%20WHERE%20%7B%20%3Fs%20%3Cfollows%3E"
      "%20%3Fo%20%7D HTTP/1.1\r\nHost: localhost\r\n"
      "Connection: close\r\n\r\n";
  std::atomic<int> ok{0};
  std::atomic<int> rejected{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 16; ++i) {
    clients.emplace_back([&] {
      for (int j = 0; j < 4; ++j) {
        std::string response = RoundTrip(*port, request);
        if (response.find("HTTP/1.1 200") != std::string::npos) {
          ++ok;
        } else if (response.find("HTTP/1.1 503") != std::string::npos) {
          ++rejected;
        } else {
          ++other;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  endpoint.Stop();
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load() + rejected.load(), 64);
  EXPECT_GT(ok.load(), 0);

  // Counter reconciliation: every connection is accounted exactly once
  // — admitted queries in queries_total (all of which succeeded here),
  // admission rejections in queries_rejected_total — and the two sides
  // match what the clients observed on the wire.
  EndpointStats stats = endpoint.Stats();
  EXPECT_EQ(stats.queries_total, static_cast<uint64_t>(ok.load()));
  EXPECT_EQ(stats.queries_rejected_total,
            static_cast<uint64_t>(rejected.load()));
  EXPECT_EQ(stats.queries_failed_total, 0u);
  EXPECT_EQ(stats.queries_total + stats.queries_rejected_total, 64u);
}

// --- Shared task-pool stress ------------------------------------------------

// Current thread count of this process (Linux).
int CountProcThreads() {
  std::ifstream status("/proc/self/status");  // s2rdf-lint: allow(raw-io)
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

// Many concurrent fanned-out queries through the endpoint: the
// morsel helpers all come from the one process-wide TaskPool, so the
// storm must finish (no endpoint-worker/TaskPool deadlock — the caller of a
// ParallelFor always participates, so completion never depends on a
// free helper) and the process thread count must stay at its pre-storm
// level plus this test's own client/sampler threads.
TEST(EndpointParallelStressTest, SharedPoolServesParallelQueriesBounded) {
  rdf::Graph g;
  for (int i = 0; i < 3000; ++i) {
    g.AddIris("N" + std::to_string(i), "p",
              "N" + std::to_string((i + 1) % 3000));
    g.AddIris("N" + std::to_string(i), "p",
              "N" + std::to_string((i + 37) % 3000));
  }
  auto db = core::S2Rdf::Create(std::move(g), core::S2RdfOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // Force the shared pool into existence before the baseline count.
  const int pool_threads = TaskPool::Shared()->num_threads();
  EndpointOptions options;
  options.num_workers = 6;
  options.queue_capacity = 64;
  SparqlEndpoint endpoint(db->get(), options);
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const int before = CountProcThreads();
  ASSERT_GE(before, 1 + options.num_workers + pool_threads);

  // ?a <p> ?b . ?b <p> ?c — a 6000x6000-row join, well above
  // kParallelRowThreshold, so every in-flight query submits pool tasks.
  const std::string request =
      "GET /sparql?query=SELECT%20%2A%20WHERE%20%7B%20%3Fa%20%3Cp%3E%20%3Fb"
      "%20.%20%3Fb%20%3Cp%3E%20%3Fc%20.%20%7D HTTP/1.1\r\n"
      "Host: localhost\r\nConnection: close\r\n\r\n";
  constexpr int kClients = 10;
  constexpr int kRequestsPerClient = 3;

  std::atomic<bool> done{false};
  std::atomic<int> max_threads{0};
  std::thread sampler([&] {
    while (!done.load()) {
      int now = CountProcThreads();
      int prev = max_threads.load();
      while (now > prev && !max_threads.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::atomic<int> ok{0};
  std::atomic<int> rejected{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      for (int j = 0; j < kRequestsPerClient; ++j) {
        std::string response = RoundTrip(*port, request);
        if (response.find("HTTP/1.1 200") != std::string::npos) {
          ++ok;
        } else if (response.find("HTTP/1.1 503") != std::string::npos) {
          ++rejected;
        } else {
          ++other;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done = true;
  sampler.join();
  endpoint.Stop();

  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(ok.load() + rejected.load(), kClients * kRequestsPerClient);
  // Anything beyond the baseline is a client or sampler thread of this
  // test — a saturated server must never spawn per-query threads.
  EXPECT_LE(max_threads.load(), before + kClients + 1);
}

// --- Large answers ----------------------------------------------------------

// A store whose one predicate <p> links `triples` distinct subject IRIs
// to distinct object IRIs, so `SELECT * { ?s <p> ?o }` answers `triples`
// rows of two distinct terms each.
std::unique_ptr<core::S2Rdf> WideStore(int triples) {
  rdf::Graph g;
  for (int i = 0; i < triples; ++i) {
    g.AddIris("http://example.org/subject/" + std::to_string(i), "p",
              "http://example.org/object/" + std::to_string(i));
  }
  auto db = core::S2Rdf::Create(std::move(g), core::S2RdfOptions());
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(*db) : nullptr;
}

constexpr char kWideQuery[] =
    "SELECT%20%2A%20WHERE%20%7B%20%3Fs%20%3Cp%3E%20%3Fo%20%7D";

// A client that sends a query and hangs up before the answer must not
// take the server down. The answer is megabytes, more than a socket send
// buffer holds, so writing it meets the reset the closed connection
// answers with; the server must then still answer the next client on a
// new connection.
TEST(EndpointHangUpTest, ClientThatHangsUpBeforeTheAnswer) {
  constexpr int kTriples = 60000;
  std::unique_ptr<core::S2Rdf> db = WideStore(kTriples);
  ASSERT_NE(db, nullptr);

  // The worker takes the first connection only once its client has hung
  // up, so the answer always goes to a closed connection.
  std::mutex mu;
  std::condition_variable cv;
  bool hung_up = false;
  EndpointOptions options;
  options.num_workers = 1;
  options.worker_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return hung_up; });
  };
  SparqlEndpoint endpoint(db.get(), options);
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const std::string request = std::string("GET /sparql?query=") + kWideQuery +
                              " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  close(fd);
  {
    std::lock_guard<std::mutex> lock(mu);
    hung_up = true;
  }
  cv.notify_all();

  const std::string second = RoundTrip(
      *port,
      "GET /sparql?query=ASK%20%7B%20%3Fs%20%3Cp%3E%20%3Fo%20%7D HTTP/1.1\r\n"
      "Host: localhost\r\nConnection: close\r\n\r\n");
  endpoint.Stop();
  EXPECT_NE(second.find("HTTP/1.1 200 OK"), std::string::npos) << second;
  EXPECT_NE(second.find("\"boolean\": true"), std::string::npos);
  EXPECT_EQ(endpoint.Stats().queries_total, 2u);

  // The first answer was rendered in full, then lost on the wire. It is
  // larger than Linux's default maximum send buffer (4 MiB), so it could
  // not have been handed to the kernel in one piece before the reset.
  std::vector<QueryRecord> recent = endpoint.RecentQueries();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[1].rows, static_cast<uint64_t>(kTriples));
  EXPECT_GT(recent[1].response_bytes, uint64_t{4} << 20);
}

// The record of a large answer carries what formatting it cost: the
// body's size and the time spent rendering it, outside total_ms.
TEST(EndpointRecordTest, LargeAnswerRecordsBodySizeAndFormatTime) {
  constexpr int kTriples = 20000;
  std::unique_ptr<core::S2Rdf> db = WideStore(kTriples);
  ASSERT_NE(db, nullptr);
  SparqlEndpoint endpoint(db.get());
  HttpRequest request;
  request.method = "GET";
  request.path = "/sparql";
  request.query_string = std::string("query=") + kWideQuery;
  const HttpResponse json = endpoint.Handle(request);
  request.headers["accept"] = "text/csv";
  const HttpResponse csv = endpoint.Handle(request);
  ASSERT_EQ(json.status_code, 200);
  ASSERT_EQ(csv.status_code, 200);
  EXPECT_GT(json.body.size(), size_t{1} << 20);

  std::vector<QueryRecord> recent = endpoint.RecentQueries();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].response_bytes, csv.body.size());
  EXPECT_EQ(recent[1].response_bytes, json.body.size());
  EXPECT_EQ(recent[1].rows, static_cast<uint64_t>(kTriples));
  EXPECT_GT(recent[1].format_ms, 0.0);

  HttpRequest debug;
  debug.method = "GET";
  debug.path = "/debug/queries";
  const std::string page = endpoint.Handle(debug).body;
  EXPECT_NE(page.find("bytes=" + std::to_string(json.body.size())),
            std::string::npos)
      << page;
  EXPECT_NE(page.find(" ms  format="), std::string::npos) << page;

  HttpRequest metrics;
  metrics.method = "GET";
  metrics.path = "/metrics";
  const std::string exposition = endpoint.Handle(metrics).body;
  EXPECT_NE(exposition.find("s2rdf_format_seconds_count 2"),
            std::string::npos);
  EXPECT_NE(exposition.find("s2rdf_query_latency_seconds_count 2"),
            std::string::npos);
}


// --- Persistent connections ------------------------------------------------

// A client socket connected to 127.0.0.1:`port` whose reads give up after
// two seconds, so that a server that never answers fails a test instead
// of hanging it. -1 when the connection fails.
int Connect(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{2, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool Send(int fd, const std::string& bytes) {
  return send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

// Reads one response, framed by its Content-Length, from `fd`; bytes
// past it stay in `*pending` for the next call. "" when the connection
// ends or the read times out first.
std::string ReadResponse(int fd, std::string* pending) {
  char buf[4096];
  while (true) {
    const size_t head_end = pending->find("\r\n\r\n");
    const size_t length_at = pending->find("Content-Length: ");
    if (head_end != std::string::npos && length_at < head_end) {
      const size_t size =
          head_end + 4 +
          std::strtoull(pending->c_str() + length_at + 16, nullptr, 10);
      if (pending->size() >= size) {
        std::string response = pending->substr(0, size);
        pending->erase(0, size);
        return response;
      }
    }
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) return "";
    pending->append(buf, static_cast<size_t>(n));
  }
}

std::string ReadResponse(int fd) {
  std::string pending;
  return ReadResponse(fd, &pending);
}

// RoundTrip for one request that gives up after the read timeout.
std::string Fetch(int port, const std::string& wire) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  const std::string response = Send(fd, wire) ? ReadResponse(fd) : "";
  close(fd);
  return response;
}

// Whether the server has closed `fd`: the next read sees EOF (or the
// reset of a close with unread bytes) before the read timeout.
bool ReadsEof(int fd) {
  char c = 0;
  const ssize_t n = read(fd, &c, 1);
  return n == 0 || (n < 0 && errno == ECONNRESET);
}

std::string TraceIdOf(const std::string& response) {
  const std::string key = "X-S2RDF-Trace-Id: ";
  const size_t pos = response.find(key);
  if (pos == std::string::npos) return "";
  return response.substr(pos + key.size(), 16);
}

// The value of metric `name` in a /metrics exposition, or -1.
long MetricValue(const std::string& exposition, const std::string& name) {
  const size_t pos = exposition.find("\n" + name + " ");
  if (pos == std::string::npos) return -1;
  return std::atol(exposition.c_str() + pos + name.size() + 2);
}

// Sends `wire` on a new connection and returns the one response, after
// checking that it closes the connection.
std::string AnswerThenClose(int port, const std::string& wire) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  if (!Send(fd, wire)) {
    close(fd);
    return "";
  }
  const std::string response = ReadResponse(fd);
  EXPECT_NE(response.find("Connection: close"), std::string::npos) << wire;
  EXPECT_TRUE(ReadsEof(fd)) << wire;
  close(fd);
  return response;
}

std::unique_ptr<core::S2Rdf> FollowsStore() {
  rdf::Graph g;
  g.AddIris("A", "follows", "B");
  g.AddIris("B", "follows", "C");
  auto db = core::S2Rdf::Create(std::move(g), core::S2RdfOptions());
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(*db) : nullptr;
}

// ASK { <A> <follows> <B> } is true; ASK { <B> <follows> <A> } is false.
// Neither says anything about the connection.
constexpr char kAskTrue[] =
    "GET /sparql?query=ASK%20%7B%20%3CA%3E%20%3Cfollows%3E%20%3CB%3E%20%7D"
    " HTTP/1.1\r\nHost: localhost\r\n\r\n";
constexpr char kAskFalse[] =
    "GET /sparql?query=ASK%20%7B%20%3CB%3E%20%3Cfollows%3E%20%3CA%3E%20%7D"
    " HTTP/1.1\r\nHost: localhost\r\n\r\n";
constexpr char kHealthThenClose[] =
    "GET /health HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";

TEST(EndpointKeepAliveTest, ThreeRequestsShareOneConnection) {
  std::unique_ptr<core::S2Rdf> db = FollowsStore();
  ASSERT_NE(db, nullptr);
  SparqlEndpoint endpoint(db.get());
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const int fd = Connect(*port);
  ASSERT_GE(fd, 0);
  std::string pending;
  std::set<std::string> trace_ids;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Send(fd, kAskTrue));
    const std::string response = ReadResponse(fd, &pending);
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
    trace_ids.insert(TraceIdOf(response));
  }
  close(fd);
  endpoint.Stop();
  EXPECT_EQ(trace_ids.size(), 3u);
  EXPECT_EQ(trace_ids.count(""), 0u);
  EXPECT_EQ(endpoint.Stats().queries_total, 3u);
}

TEST(EndpointKeepAliveTest, PipelinedRequestsAreAnsweredInOrder) {
  std::unique_ptr<core::S2Rdf> db = FollowsStore();
  ASSERT_NE(db, nullptr);
  SparqlEndpoint endpoint(db.get());
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const int fd = Connect(*port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(Send(fd, std::string(kAskTrue) + kAskFalse));
  std::string pending;
  const std::string first = ReadResponse(fd, &pending);
  const std::string second = ReadResponse(fd, &pending);
  close(fd);
  endpoint.Stop();
  EXPECT_NE(first.find("\"boolean\": true"), std::string::npos) << first;
  EXPECT_NE(second.find("\"boolean\": false"), std::string::npos) << second;
  EXPECT_EQ(endpoint.Stats().queries_total, 2u);
}

// `Connection: close`, HTTP/1.0 without keep-alive and HEAD each get one
// response that says `Connection: close`, then EOF; a request pipelined
// behind the close is not answered. HTTP/1.0 that asks for keep-alive
// stays open.
TEST(EndpointKeepAliveTest, CloseAndHttp10EndTheConnection) {
  std::unique_ptr<core::S2Rdf> db = FollowsStore();
  ASSERT_NE(db, nullptr);
  SparqlEndpoint endpoint(db.get());
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  for (const std::string& wire :
       {std::string(kHealthThenClose) + kAskTrue,
        std::string("GET /health HTTP/1.0\r\n\r\n")}) {
    EXPECT_NE(AnswerThenClose(*port, wire).find("HTTP/1.1 200 OK"),
              std::string::npos)
        << wire;
  }
  EXPECT_NE(AnswerThenClose(*port, "HEAD /health HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 "),
            std::string::npos);

  const int fd = Connect(*port);
  ASSERT_GE(fd, 0);
  const std::string http10_keep_alive =
      "GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
  std::string pending;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(Send(fd, http10_keep_alive));
    const std::string response = ReadResponse(fd, &pending);
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos)
        << response;
  }
  close(fd);
  endpoint.Stop();
  EXPECT_EQ(endpoint.Stats().queries_total, 0u);
}

// With the cap full of answered connections that sent nothing since, a
// new client closes the longest-idle one and is served.
TEST(EndpointKeepAliveTest, IdleConnectionIsEvictedAtTheCap) {
  std::unique_ptr<core::S2Rdf> db = FollowsStore();
  ASSERT_NE(db, nullptr);
  EndpointOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  SparqlEndpoint endpoint(db.get(), options);
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  int idle[2];
  std::string pending[2];
  for (int i = 0; i < 2; ++i) {
    idle[i] = Connect(*port);
    ASSERT_GE(idle[i], 0);
    ASSERT_TRUE(Send(idle[i], kAskTrue));
    EXPECT_NE(ReadResponse(idle[i], &pending[i]).find("HTTP/1.1 200"),
              std::string::npos);
  }
  const std::string newcomer = Fetch(*port, kHealthThenClose);
  EXPECT_NE(newcomer.find("HTTP/1.1 200 OK"), std::string::npos) << newcomer;
  // The older connection went; the younger one still serves.
  EXPECT_TRUE(ReadsEof(idle[0]));
  ASSERT_TRUE(Send(idle[1], kAskTrue));
  EXPECT_NE(ReadResponse(idle[1], &pending[1]).find("HTTP/1.1 200"),
            std::string::npos);
  const std::string metrics = Fetch(
      *port,
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n");
  close(idle[0]);
  close(idle[1]);
  endpoint.Stop();
  EXPECT_GE(MetricValue(metrics, "s2rdf_connections_idle_closed_total"), 1)
      << metrics;
  EXPECT_EQ(endpoint.Stats().queries_rejected_total, 0u);
}

// With the one worker parked and the cap full of connections that hold
// requests, the answered connection among them included, a new
// connection is answered 503 and counted; the pending requests are then
// served.
TEST(EndpointKeepAliveTest, PendingConnectionsAtTheCapGet503) {
  std::unique_ptr<core::S2Rdf> db = FollowsStore();
  ASSERT_NE(db, nullptr);
  std::mutex mu;
  std::condition_variable cv;
  bool park = false;
  bool release = false;
  int parked = 0;
  EndpointOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.worker_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!park) return;
    ++parked;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  SparqlEndpoint endpoint(db.get(), options);
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const int kept = Connect(*port);
  ASSERT_GE(kept, 0);
  std::string kept_pending;
  ASSERT_TRUE(Send(kept, kAskTrue));
  EXPECT_NE(ReadResponse(kept, &kept_pending).find("HTTP/1.1 200"),
            std::string::npos);
  {
    std::lock_guard<std::mutex> lock(mu);
    park = true;
  }
  const int parker = Connect(*port);
  ASSERT_GE(parker, 0);
  ASSERT_TRUE(Send(parker, kAskTrue));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return parked == 1; }));
  }
  // From here on the worker is parked: no ASSERT may end the test before
  // it is released, or Stop would wait for it forever.
  EXPECT_TRUE(Send(kept, kAskFalse));
  for (int i = 0; i < 5000 && endpoint.Stats().queue_depth == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(endpoint.Stats().queue_depth, 1u);

  const std::string rejected = Fetch(*port, kHealthThenClose);
  EXPECT_NE(rejected.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos)
      << rejected;
  EXPECT_EQ(endpoint.Stats().queries_rejected_total, 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_NE(ReadResponse(parker).find("\"boolean\": true"), std::string::npos);
  EXPECT_NE(ReadResponse(kept, &kept_pending).find("\"boolean\": false"),
            std::string::npos);
  close(parker);
  close(kept);
  endpoint.Stop();
  EXPECT_EQ(endpoint.Stats().queries_total, 3u);
}

// Eight keep-alive clients against a cap of four connections: every new
// connection evicts an idle one or is answered 503, while the evicted
// connections' clients keep sending. A request lost with its evicted
// connection was never served, and its client retries once on a new
// connection, as HTTP clients do; so every request ends in exactly one
// 200 or 503, and the server's counters match what the clients saw.
TEST(EndpointKeepAliveTest, EvictionsRacingTrafficLoseNoAnswer) {
  std::unique_ptr<core::S2Rdf> db = FollowsStore();
  ASSERT_NE(db, nullptr);
  EndpointOptions options;
  options.num_workers = 2;
  options.queue_capacity = 2;
  SparqlEndpoint endpoint(db.get(), options);
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 20;
  std::atomic<int> ok{0};
  std::atomic<int> rejected{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      int fd = -1;
      std::string pending;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        for (int attempt = 0; attempt < 2; ++attempt) {
          const bool reused = fd >= 0;
          if (fd < 0) fd = Connect(*port);
          const std::string response =
              fd >= 0 && Send(fd, kAskTrue) ? ReadResponse(fd, &pending) : "";
          const bool closes =
              response.empty() ||
              response.find("Connection: close") != std::string::npos;
          if (closes && fd >= 0) {
            close(fd);
            fd = -1;
            pending.clear();
          }
          if (response.empty() && reused) continue;
          if (response.find("\"boolean\": true") != std::string::npos) {
            ++ok;
          } else if (response.find("HTTP/1.1 503") != std::string::npos) {
            ++rejected;
          } else {
            ++other;
          }
          break;
        }
      }
      if (fd >= 0) close(fd);
    });
  }
  for (std::thread& client : clients) client.join();
  endpoint.Stop();
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load() + rejected.load(), kClients * kRequestsPerClient);
  EXPECT_GT(ok.load(), 0);
  const EndpointStats stats = endpoint.Stats();
  EXPECT_EQ(stats.queries_total, static_cast<uint64_t>(ok.load()));
  EXPECT_EQ(stats.queries_rejected_total,
            static_cast<uint64_t>(rejected.load()));
}

// --- Silent and slow clients -------------------------------------------------

TEST(EndpointSilentClientTest, SilentConnectionsHoldNoWorker) {
  std::unique_ptr<core::S2Rdf> db = FollowsStore();
  ASSERT_NE(db, nullptr);
  EndpointOptions options;
  SparqlEndpoint endpoint(db.get(), options);
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  std::vector<int> silent;
  for (int i = 0; i < options.num_workers + 1; ++i) {
    silent.push_back(Connect(*port));
    ASSERT_GE(silent.back(), 0);
  }
  const MonotonicTime start = MonotonicNow();
  const int fd = Connect(*port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(Send(fd, kHealthThenClose));
  const std::string health = ReadResponse(fd);
  const double health_ms = MillisSince(start);
  close(fd);
  // Closing the silent clients first lets a server whose workers wait on
  // them stop.
  for (int s : silent) close(s);
  endpoint.Stop();
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_LT(health_ms, 1000.0);
}

TEST(EndpointSilentClientTest, HalfSentHeadHoldsNoWorker) {
  std::unique_ptr<core::S2Rdf> db = FollowsStore();
  ASSERT_NE(db, nullptr);
  EndpointOptions options;
  options.num_workers = 1;
  SparqlEndpoint endpoint(db.get(), options);
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const int slow = Connect(*port);
  ASSERT_GE(slow, 0);
  ASSERT_TRUE(Send(slow, "GET /health HTTP/1.1\r\nHost: loc"));
  // Lets the one worker take the half head before the next client comes.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const MonotonicTime start = MonotonicNow();
  const int fd = Connect(*port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(Send(fd, kHealthThenClose));
  const std::string health = ReadResponse(fd);
  const double health_ms = MillisSince(start);
  close(fd);
  // The rest of the head completes the buffered request.
  ASSERT_TRUE(Send(slow, "alhost\r\nConnection: close\r\n\r\n"));
  const std::string completed = ReadResponse(slow);
  close(slow);
  endpoint.Stop();
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_LT(health_ms, 1000.0);
  EXPECT_NE(completed.find("HTTP/1.1 200 OK"), std::string::npos) << completed;
}

TEST(EndpointSilentClientTest, StopReturnsWithIdleAndHalfSentConnections) {
  std::unique_ptr<core::S2Rdf> db = FollowsStore();
  ASSERT_NE(db, nullptr);
  SparqlEndpoint endpoint(db.get());
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const int silent = Connect(*port);
  const int half_sent = Connect(*port);
  const int kept = Connect(*port);
  ASSERT_GE(silent, 0);
  ASSERT_GE(half_sent, 0);
  ASSERT_GE(kept, 0);
  ASSERT_TRUE(Send(half_sent, "GET /health HTTP/1.1\r\n"));
  ASSERT_TRUE(Send(kept, kAskTrue));
  EXPECT_NE(ReadResponse(kept).find("HTTP/1.1 200"), std::string::npos);

  std::atomic<bool> stopped{false};
  const MonotonicTime start = MonotonicNow();
  std::thread stopper([&] {
    endpoint.Stop();
    stopped = true;
  });
  while (!stopped && MillisSince(start) < 1000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool stopped_in_time = stopped;
  // A server that waits on its clients stops once they are gone.
  for (int fd : {silent, half_sent, kept}) close(fd);
  stopper.join();
  EXPECT_TRUE(stopped_in_time);
}

// A client that asks for a large answer and then stops reading holds the
// one worker only until the answer's write times out after the
// endpoint's idle timeout (5 s): another client's /health is then
// answered, and Stop() returns, within that timeout plus 2 s.
TEST(EndpointSilentClientTest, ClientThatStopsReadingReleasesItsWorker) {
  constexpr auto kBound = std::chrono::seconds(5 + 2);
  constexpr int kTriples = 100000;
  std::unique_ptr<core::S2Rdf> db = WideStore(kTriples);
  ASSERT_NE(db, nullptr);
  EndpointOptions options;
  options.num_workers = 1;
  SparqlEndpoint endpoint(db.get(), options);
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  // A 4 KiB receive buffer, never read: the answer stalls in the write.
  const int stalled = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  const int receive_buffer = 4096;
  setsockopt(stalled, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
             sizeof(receive_buffer));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  ASSERT_EQ(connect(stalled, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  ASSERT_TRUE(Send(stalled, std::string("GET /sparql?query=") + kWideQuery +
                                " HTTP/1.1\r\nHost: localhost\r\n\r\n"));
  // The query is counted before its answer is written.
  for (int i = 0; i < 10000 && endpoint.Stats().queries_total == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const MonotonicTime start = MonotonicNow();

  const int health = Connect(*port);
  const timeval wait{kBound.count(), 0};
  setsockopt(health, SOL_SOCKET, SO_RCVTIMEO, &wait, sizeof(wait));
  const std::string answer =
      Send(health, kHealthThenClose) ? ReadResponse(health) : "";
  close(health);
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    endpoint.Stop();
    stopped = true;
  });
  while (!stopped && MonotonicNow() - start < kBound) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double stop_ms = MillisSince(start);
  const bool stopped_in_time = stopped;
  // A server that waits on the stalled client stops once it is gone.
  close(stalled);
  stopper.join();
  EXPECT_NE(answer.find("HTTP/1.1 200 OK"), std::string::npos) << answer;
  EXPECT_TRUE(stopped_in_time) << stop_ms << " ms";
}

// At the cap, a client that connects and sends nothing is answered 503
// after a short wait, and the accept behind it is not held up.
TEST(EndpointSilentClientTest, SilentClientAtTheCapDoesNotStallAccept) {
  std::unique_ptr<core::S2Rdf> db = FollowsStore();
  ASSERT_NE(db, nullptr);
  EndpointOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  SparqlEndpoint endpoint(db.get(), options);
  auto port = endpoint.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  // Two silent connections fill the cap; a connection that has not been
  // answered yet is never evicted, since its request may be in flight.
  std::vector<int> silent;
  for (int i = 0; i < 3; ++i) {
    silent.push_back(Connect(*port));
    ASSERT_GE(silent.back(), 0);
  }
  const MonotonicTime start = MonotonicNow();
  const int fd = Connect(*port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(Send(fd, kHealthThenClose));
  const std::string next = ReadResponse(fd);
  const double next_ms = MillisSince(start);
  close(fd);
  const std::string silent_answer = ReadResponse(silent[2]);
  for (int s : silent) close(s);
  endpoint.Stop();
  EXPECT_NE(silent_answer.find("HTTP/1.1 503"), std::string::npos)
      << silent_answer;
  EXPECT_NE(next.find("HTTP/1.1 503"), std::string::npos) << next;
  EXPECT_LT(next_ms, 1000.0);
  EXPECT_EQ(endpoint.Stats().queries_rejected_total, 2u);
}

// --- Request framing on a stream that stays open ----------------------------

class EndpointFramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = FollowsStore();
    ASSERT_NE(db_, nullptr);
    endpoint_ = std::make_unique<SparqlEndpoint>(db_.get());
    auto port = endpoint_->Start(0);
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
  }
  void TearDown() override {
    if (endpoint_ != nullptr) endpoint_->Stop();
  }

  static std::string PostWithLength(const std::string& length) {
    return "POST /sparql HTTP/1.1\r\nHost: localhost\r\n"
           "Content-Type: application/sparql-query\r\n"
           "Content-Length: " +
           length + "\r\n\r\n";
  }

  std::unique_ptr<core::S2Rdf> db_;
  std::unique_ptr<SparqlEndpoint> endpoint_;
  int port_ = 0;
};

TEST_F(EndpointFramingTest, NonDecimalContentLengthGets400AndClose) {
  for (const char* length : {"-1", "ten", "1 0"}) {
    const std::string response =
        AnswerThenClose(port_, PostWithLength(length));
    EXPECT_NE(response.find("HTTP/1.1 400 Bad Request"), std::string::npos)
        << length << ": " << response;
  }
}

TEST_F(EndpointFramingTest, OversizedRequestGets413AndClose) {
  const std::string over_limit =
      std::to_string(HttpRequestStream::kMaxRequestBytes + 1);
  const std::string response =
      AnswerThenClose(port_, PostWithLength(over_limit));
  EXPECT_NE(response.find("HTTP/1.1 413 Content Too Large"), std::string::npos)
      << response;
}

TEST_F(EndpointFramingTest, TransferEncodingGets501AndClose) {
  const std::string response = AnswerThenClose(
      port_,
      "POST /sparql HTTP/1.1\r\nHost: localhost\r\n"
      "Content-Type: application/sparql-query\r\n"
      "Transfer-Encoding: chunked\r\n\r\n"
      "5\r\nASK{}\r\n0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 501 Not Implemented"), std::string::npos)
      << response;
}

TEST_F(EndpointFramingTest, RequestFollowedByFinIsAnswered) {
  const int fd = Connect(port_);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(Send(fd, kAskTrue));
  shutdown(fd, SHUT_WR);
  const std::string response = ReadResponse(fd);
  EXPECT_NE(response.find("\"boolean\": true"), std::string::npos)
      << response;
  EXPECT_TRUE(ReadsEof(fd));
  close(fd);
}

}  // namespace
}  // namespace s2rdf::server
