#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/task_pool.h"
#include "core/s2rdf.h"
#include "server/http.h"
#include "server/sparql_endpoint.h"
#include "server/worker_pool.h"

namespace s2rdf::server {
namespace {

// --- Worker pool ----------------------------------------------------------

TEST(WorkerPoolTest, RunsSubmittedTasks) {
  WorkerPool pool(4, 16);
  pool.Start();
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    while (!pool.Submit([&ran] { ++ran; })) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  pool.Stop();  // Drains the queue before joining.
  EXPECT_EQ(ran.load(), 32);
}

TEST(WorkerPoolTest, RejectsWhenQueueFull) {
  WorkerPool pool(1, 1);
  pool.Start();
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool entered = false;
  // Occupy the only worker.
  ASSERT_TRUE(pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  }));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  // Fill the one queue slot, then overflow.
  EXPECT_TRUE(pool.Submit([] {}));
  EXPECT_EQ(pool.QueueDepth(), 1u);
  EXPECT_FALSE(pool.Submit([] {}));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Stop();
  EXPECT_FALSE(pool.Submit([] {}));  // Stopped pools reject.
}

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
      " HTTP/1.1\r\nHost: localhost\r\n\r\n";

  // Connection 1 occupies the worker (blocked in the hook).
  std::thread first([&] {
    EXPECT_NE(RoundTrip(*port, request).find("HTTP/1.1 200"),
              std::string::npos);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return parked == 1; }));
  }

  // Connection 2 fills the queue slot.
  std::thread second([&] {
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
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  first.join();
  second.join();
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
      "%20%3Fo%20%7D HTTP/1.1\r\nHost: localhost\r\n\r\n";
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
// storm must finish (no WorkerPool/TaskPool deadlock — the caller of a
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
      "Host: localhost\r\n\r\n";
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
      "Host: localhost\r\n\r\n");
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

}  // namespace
}  // namespace s2rdf::server
