#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/file_util.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/task_pool.h"
#include "common/random.h"
#include "core/s2rdf.h"
#include "engine/profile.h"
#include "server/sparql_endpoint.h"
#include "storage/fault_injection_env.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

// The observability layer end to end (`ctest -L observability`): the
// metrics registry and its Prometheus rendering, the injectable clock,
// EXPLAIN ANALYZE profile correctness against the compiler's table
// choices and the engine's ExecMetrics, Chrome trace export, and the
// endpoint's introspection surfaces (/metrics, /debug/queries,
// slow-query log, failure counters) including their thread safety.

namespace s2rdf {
namespace {

// --- Metrics registry -------------------------------------------------------

TEST(MetricsRegistryTest, CountersAndGaugesRender) {
  MetricsRegistry registry;
  Counter* c = registry.AddCounter("t_total", "things");
  c->Increment();
  c->Increment(2);
  EXPECT_EQ(c->Value(), 3u);
  registry.AddGauge("g", "a gauge", [] { return uint64_t{42}; });

  std::string out = registry.RenderPrometheus();
  EXPECT_NE(out.find("# HELP t_total things\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE t_total counter\n"), std::string::npos);
  EXPECT_NE(out.find("t_total 3\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE g gauge\n"), std::string::npos);
  EXPECT_NE(out.find("g 42\n"), std::string::npos);
}

TEST(MetricsRegistryTest, RegistrationDedupesByName) {
  MetricsRegistry registry;
  Counter* a = registry.AddCounter("dup_total", "first");
  Counter* b = registry.AddCounter("dup_total", "second");
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistryTest, HistogramBucketsAreInclusiveLe) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(1.0);    // Exactly on a bound: le="1" is inclusive.
  h.Observe(3.0);    // Between bounds: lands in le="4".
  h.Observe(100.0);  // Above all bounds: +Inf only.
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 104.0);
  EXPECT_EQ(h.CumulativeCounts(), (std::vector<uint64_t>{1, 1, 2, 3}));
}

TEST(MetricsRegistryTest, HistogramRendersPrometheusExposition) {
  MetricsRegistry registry;
  Histogram* h = registry.AddHistogram("lat", "latency", {0.5, 1.0});
  h->Observe(0.25);
  h->Observe(2.0);
  std::string out = registry.RenderPrometheus();
  EXPECT_NE(out.find("# TYPE lat histogram\n"), std::string::npos);
  EXPECT_NE(out.find("lat_bucket{le=\"0.5\"} 1\n"), std::string::npos);
  EXPECT_NE(out.find("lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(out.find("lat_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("lat_sum 2.25\n"), std::string::npos);
  EXPECT_NE(out.find("lat_count 2\n"), std::string::npos);
}

TEST(MetricsRegistryTest, LogBucketsAreGeometric) {
  EXPECT_EQ(LogBuckets(1.0, 4.0, 3), (std::vector<double>{1.0, 4.0, 16.0}));
  EXPECT_EQ(LatencySecondsBuckets().size(), 21u);
  EXPECT_DOUBLE_EQ(LatencySecondsBuckets().front(), 1e-4);
}

// --- Clock seam -------------------------------------------------------------

// Advances 10 ms on every read; installed via SetClockForTest.
MonotonicTime SteppingClock() {
  static std::atomic<int64_t> ticks{0};
  return MonotonicTime{} +
         std::chrono::milliseconds(10 * ticks.fetch_add(1));
}

TEST(ClockTest, TestClockOverridesAndRestores) {
  SetClockForTest(&SteppingClock);
  MonotonicTime t0 = MonotonicNow();
  MonotonicTime t1 = MonotonicNow();
  EXPECT_EQ((std::chrono::duration<double, std::milli>(t1 - t0).count()),
            10.0);
  SetClockForTest(nullptr);
  // Real clock again: two reads are (sub-)millisecond apart, not 10 ms.
  MonotonicTime r0 = MonotonicNow();
  EXPECT_LT(MillisSince(r0), 10.0);
}

// --- Profile correctness ----------------------------------------------------

bool SameTable(const rdf::Table& a, const rdf::Table& b) {
  if (a.column_names() != b.column_names() || a.NumRows() != b.NumRows()) {
    return false;
  }
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    if (a.Column(c) != b.Column(c)) return false;
  }
  return true;
}

bool SameMetrics(const engine::ExecMetrics& a, const engine::ExecMetrics& b) {
  return a.input_tuples == b.input_tuples &&
         a.intermediate_tuples == b.intermediate_tuples &&
         a.join_comparisons == b.join_comparisons &&
         a.shuffled_tuples == b.shuffled_tuples &&
         a.output_tuples == b.output_tuples;
}

// The fixed micro-workload: a WatDiv snapshot at scale 0.1 and a star
// query (S3) instantiated with a pinned seed.
rdf::Graph MicroGraph() {
  watdiv::GeneratorOptions gen;
  gen.scale_factor = 0.1;
  return watdiv::Generate(gen);
}

std::string MicroQuery() {
  const watdiv::QueryTemplate* tmpl = watdiv::FindQuery("S3");
  SplitMix64 rng(7);
  return watdiv::InstantiateQuery(*tmpl, 0.1, &rng);
}

// A 3000-node graph of two <p> edges per node: its 6000-row VP table
// and every join over it clear kParallelRowThreshold, so the operators
// of a query over it fan out.
rdf::Graph FanOutGraph() {
  rdf::Graph g;
  for (int i = 0; i < 3000; ++i) {
    g.AddIris("N" + std::to_string(i), "p",
              "N" + std::to_string((i + 1) % 3000));
    g.AddIris("N" + std::to_string(i), "p",
              "N" + std::to_string((i + 37) % 3000));
  }
  return g;
}

constexpr char kFanOutQuery[] = "SELECT * WHERE { ?a <p> ?b . ?b <p> ?c . }";

// EXPLAIN ANALYZE must describe exactly what ran: the tables the
// compiler chose (with the catalog's SF behind each choice), metric
// deltas that add up to the query's ExecMetrics, and results that are
// byte-identical to an unprofiled run — with operators running inline
// (serially) and fanned out over the pool.
void CheckProfiledExecution(rdf::Graph graph, const std::string& query) {
  auto db = core::S2Rdf::Create(std::move(graph), core::S2RdfOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  core::QueryRequest request;
  request.query = query;
  auto plain = (*db)->Execute(request);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_TRUE(plain->profile_data.operators.empty());

  request.options.collect_profile = true;
  auto profiled = (*db)->Execute(request);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();

  // Profiling must not change what the query computes.
  EXPECT_TRUE(SameTable(plain->table, profiled->table));
  EXPECT_TRUE(SameMetrics(plain->metrics, profiled->metrics));

  const engine::QueryProfile& profile = profiled->profile_data;
  ASSERT_FALSE(profile.operators.empty());

  // The profile's totals are the query's ExecMetrics, and the root
  // operator (pre-order, depth 0) saw all the plan-side work as its
  // inclusive delta. output_tuples is stamped by the core layer after
  // the plan returns, so the root reports it as output_rows instead.
  EXPECT_TRUE(SameMetrics(profile.totals, profiled->metrics));
  const engine::OperatorProfile& root = profile.operators.front();
  EXPECT_EQ(root.depth, 0);
  EXPECT_EQ(root.delta.input_tuples, plain->metrics.input_tuples);
  EXPECT_EQ(root.delta.intermediate_tuples,
            plain->metrics.intermediate_tuples);
  EXPECT_EQ(root.delta.join_comparisons, plain->metrics.join_comparisons);
  EXPECT_EQ(root.delta.shuffled_tuples, plain->metrics.shuffled_tuples);
  EXPECT_EQ(root.output_rows, plain->metrics.output_tuples);

  // Stage timings are populated and consistent.
  EXPECT_GT(profile.total_ms, 0.0);
  EXPECT_GE(profile.total_ms,
            profile.parse_ms + profile.compile_ms + profile.exec_ms - 1e-6);

  // Every scan reports the compiler-chosen table, a known layout
  // family, and the catalog's selectivity factor for that table.
  const std::set<std::string> kLayouts = {"ExtVP", "ExtVP-bitmap", "VP",
                                          "TT"};
  const std::string sql = profiled->plan->ToSql();
  size_t scans = 0;
  for (const engine::OperatorProfile& op : profile.operators) {
    if (op.table.empty()) continue;
    ++scans;
    EXPECT_TRUE(kLayouts.contains(op.layout)) << op.layout;
    EXPECT_NE(sql.find(op.table), std::string::npos)
        << op.table << " not in compiled SQL";
    const std::optional<storage::TableStats> stats =
        (*db)->catalog().GetStats(op.table);
    ASSERT_TRUE(stats.has_value()) << op.table;
    EXPECT_DOUBLE_EQ(op.sf, stats->selectivity) << op.table;
  }
  EXPECT_GT(scans, 0u);

  // The rendered tree mentions the stage header and the scans.
  const std::string text = engine::RenderProfileText(profile);
  EXPECT_NE(text.find("stages: parse="), std::string::npos);
  EXPECT_NE(text.find("Scan("), std::string::npos);
  EXPECT_NE(text.find("[layout="), std::string::npos);
  EXPECT_NE(text.find("totals: "), std::string::npos);
}

TEST(ProfileCorrectnessTest, SerialProfileMatchesEngineAndCatalog) {
  CheckProfiledExecution(MicroGraph(), MicroQuery());
}

TEST(ProfileCorrectnessTest, ParallelProfileMatchesEngineAndCatalog) {
  CheckProfiledExecution(FanOutGraph(), kFanOutQuery);
}

// A join far above kParallelRowThreshold records per-partition task
// spans that land on their own trace lanes.
TEST(ProfileCorrectnessTest, ParallelTasksRecordSpans) {
  auto db = core::S2Rdf::Create(FanOutGraph(), core::S2RdfOptions());
  ASSERT_TRUE(db.ok());

  core::QueryRequest request;
  request.query = kFanOutQuery;
  request.options.collect_profile = true;
  auto result = (*db)->Execute(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const engine::QueryProfile& profile = result->profile_data;
  ASSERT_FALSE(profile.tasks.empty());
  for (const engine::TaskSpan& task : profile.tasks) {
    EXPECT_FALSE(task.label.empty());
    EXPECT_GE(task.start_ms, 0.0);
    EXPECT_GE(task.millis, 0.0);
  }
  EXPECT_NE(engine::RenderProfileText(profile).find("parallel tasks: "),
            std::string::npos);

  // Task lanes appear in the trace as tids above the main lane.
  std::string trace = engine::RenderTraceJson(profile, request.query);
  EXPECT_NE(trace.find("\"tid\":1"), std::string::npos);
}

// --- Trace export -----------------------------------------------------------

// Minimal structural JSON check: braces/brackets balance outside string
// literals and never go negative.
bool JsonStructureBalanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(TraceExportTest, RendersStructurallyValidTraceEventJson) {
  auto db = core::S2Rdf::Create(MicroGraph(), {});
  ASSERT_TRUE(db.ok());
  core::QueryRequest request;
  request.query = MicroQuery();
  request.options.collect_profile = true;
  auto result = (*db)->Execute(request);
  ASSERT_TRUE(result.ok());

  // A hostile display name must be escaped, not break the JSON.
  std::string trace =
      engine::RenderTraceJson(result->profile_data, "q\"\\\nname");
  EXPECT_TRUE(JsonStructureBalanced(trace)) << trace;
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"compile\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(trace.find("q\\\"\\\\\\nname"), std::string::npos);
}

TEST(TraceExportTest, TraceDirDumpsSequencedFiles) {
  ScopedTempDir dir;
  core::S2RdfOptions options;
  options.trace_dir = dir.path() + "/traces";
  auto db = core::S2Rdf::Create(MicroGraph(), options);
  ASSERT_TRUE(db.ok());

  core::QueryRequest request;
  request.query = MicroQuery();
  auto unprofiled = (*db)->Execute(request);
  ASSERT_TRUE(unprofiled.ok());  // No profile -> no trace file.

  request.options.collect_profile = true;
  ASSERT_TRUE((*db)->Execute(request).ok());
  ASSERT_TRUE((*db)->Execute(request).ok());

  for (const char* name : {"trace-000000.json", "trace-000001.json"}) {
    // Out-of-band check of files the server wrote; no Env in play.
    std::ifstream in(options.trace_dir + "/" + name);  // s2rdf-lint: allow(raw-io)
    ASSERT_TRUE(in.good()) << name;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_TRUE(JsonStructureBalanced(content)) << name;
    EXPECT_NE(content.find("\"traceEvents\":["), std::string::npos);
  }
  EXPECT_FALSE(  // s2rdf-lint: allow(raw-io)
      std::ifstream(options.trace_dir + "/trace-000002.json").good());
}

// --- Endpoint introspection -------------------------------------------------

class ObservabilityEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Recreate(server::EndpointOptions()); }

  void Recreate(server::EndpointOptions options) {
    rdf::Graph g;
    g.AddIris("A", "follows", "B");
    g.AddIris("B", "follows", "C");
    auto db = core::S2Rdf::Create(std::move(g), core::S2RdfOptions());
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    endpoint_ =
        std::make_unique<server::SparqlEndpoint>(db_.get(), std::move(options));
  }

  server::HttpResponse Get(const std::string& target) {
    server::HttpRequest request;
    request.method = "GET";
    size_t question = target.find('?');
    request.path = target.substr(0, question);
    if (question != std::string::npos) {
      request.query_string = target.substr(question + 1);
    }
    return endpoint_->Handle(request);
  }

  static std::string FollowsQuery() {
    return "query=SELECT%20%2A%20WHERE%20%7B%20%3Fs%20%3Cfollows%3E%20"
           "%3Fo%20%7D";
  }

  std::unique_ptr<core::S2Rdf> db_;
  std::unique_ptr<server::SparqlEndpoint> endpoint_;
};

TEST_F(ObservabilityEndpointTest, ExplainAnalyzeReturnsProfileTree) {
  server::HttpResponse response =
      Get("/sparql?" + FollowsQuery() + "&explain=analyze");
  EXPECT_EQ(response.status_code, 200);
  EXPECT_NE(response.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(response.body.find("stages: parse="), std::string::npos);
  EXPECT_NE(response.body.find("Scan("), std::string::npos);
  EXPECT_NE(response.body.find("totals: "), std::string::npos);

  // Only 'analyze' is a valid explain mode.
  EXPECT_EQ(Get("/sparql?" + FollowsQuery() + "&explain=full").status_code,
            400);
}

TEST_F(ObservabilityEndpointTest, TraceParamReturnsTraceEventJson) {
  server::HttpResponse response =
      Get("/sparql?" + FollowsQuery() + "&trace=1");
  EXPECT_EQ(response.status_code, 200);
  EXPECT_NE(response.content_type.find("application/json"),
            std::string::npos);
  EXPECT_TRUE(JsonStructureBalanced(response.body)) << response.body;
  EXPECT_NE(response.body.find("\"traceEvents\":["), std::string::npos);

  // trace=0 is a normal query; garbage is rejected.
  EXPECT_EQ(Get("/sparql?" + FollowsQuery() + "&trace=0").content_type,
            "application/sparql-results+json");
  EXPECT_EQ(Get("/sparql?" + FollowsQuery() + "&trace=yes").status_code, 400);
}

// One request renders one body: EXPLAIN wins over trace=1, and a graph
// form has no EXPLAIN but does run the one query path to a recorded plan.
TEST_F(ObservabilityEndpointTest, OneRenderingPerRequest) {
  server::HttpResponse plan =
      Get("/sparql?" + FollowsQuery() + "&explain=plan&trace=1");
  EXPECT_EQ(plan.status_code, 200);
  EXPECT_EQ(plan.body.rfind("optimizer: paper\nfingerprint: ", 0), 0u)
      << plan.body;
  EXPECT_NE(plan.body.find("Scan("), std::string::npos);

  server::HttpResponse analyze =
      Get("/sparql?" + FollowsQuery() + "&explain=analyze&trace=1");
  EXPECT_EQ(analyze.status_code, 200);
  EXPECT_NE(analyze.body.find("stages: parse="), std::string::npos)
      << analyze.body;
  EXPECT_EQ(analyze.body.find("traceEvents"), std::string::npos);

  const std::string construct =
      "query=CONSTRUCT%20%7B%20%3Fo%20%3Cby%3E%20%3Fs%20%7D%20WHERE%20%7B%20"
      "%3Fs%20%3Cfollows%3E%20%3Fo%20%7D";
  EXPECT_EQ(Get("/sparql?" + construct + "&explain=plan").status_code, 400);
  server::HttpResponse graph = Get("/sparql?" + construct);
  EXPECT_EQ(graph.status_code, 200);
  EXPECT_NE(graph.content_type.find("application/n-triples"),
            std::string::npos);
  std::vector<server::QueryRecord> recent = endpoint_->RecentQueries();
  ASSERT_FALSE(recent.empty());
  EXPECT_EQ(recent.front().optimizer_mode, "paper");
  EXPECT_NE(recent.front().plan_fingerprint, 0u);
}

TEST_F(ObservabilityEndpointTest, MetricsExposeHistogramsAndStageTimings) {
  EXPECT_EQ(Get("/sparql?" + FollowsQuery()).status_code, 200);
  EXPECT_EQ(Get("/sparql?query=NOT%20SPARQL").status_code, 400);

  std::string body = Get("/metrics").body;
  // One success + one failure: latency observed for both, stage
  // histograms only for the success.
  EXPECT_NE(body.find("s2rdf_query_latency_seconds_count 2"),
            std::string::npos);
  EXPECT_NE(body.find("s2rdf_parse_seconds_count 1"), std::string::npos);
  EXPECT_NE(body.find("s2rdf_compile_seconds_count 1"), std::string::npos);
  EXPECT_NE(body.find("s2rdf_exec_seconds_count 1"), std::string::npos);
  EXPECT_NE(body.find("s2rdf_shuffle_bytes_count 1"), std::string::npos);
  EXPECT_NE(body.find("s2rdf_rows_scanned_count 1"), std::string::npos);
  EXPECT_NE(body.find("s2rdf_query_latency_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  // Failure accounting.
  EXPECT_NE(body.find("s2rdf_queries_failed_total 1"), std::string::npos);
  EXPECT_NE(body.find("s2rdf_queries_rejected_total 0"), std::string::npos);
}

TEST_F(ObservabilityEndpointTest, DebugQueriesListsRecentWork) {
  EXPECT_EQ(Get("/sparql?" + FollowsQuery()).status_code, 200);
  EXPECT_EQ(Get("/sparql?query=NOT%20SPARQL").status_code, 400);

  server::HttpResponse response = Get("/debug/queries");
  EXPECT_EQ(response.status_code, 200);
  EXPECT_NE(response.body.find("in-flight (0):"), std::string::npos);
  EXPECT_NE(response.body.find("recent (2):"), std::string::npos);
  EXPECT_NE(response.body.find("status=200"), std::string::npos);
  EXPECT_NE(response.body.find("status=400"), std::string::npos);
  EXPECT_NE(response.body.find("NOT SPARQL"), std::string::npos);

  // Structured access mirrors the page, newest first with rising ids.
  std::vector<server::QueryRecord> recent = endpoint_->RecentQueries();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].http_status, 400);
  EXPECT_EQ(recent[1].http_status, 200);
  EXPECT_GT(recent[0].id, recent[1].id);
  EXPECT_FALSE(recent[0].error.empty());
  EXPECT_TRUE(recent[1].error.empty());
  EXPECT_EQ(recent[1].rows, 2u);
}

TEST_F(ObservabilityEndpointTest, SlowQueryLogFiresAboveThreshold) {
  std::vector<std::string> log_lines;
  server::EndpointOptions options;
  options.slow_query_ms = 1;
  options.slow_query_log = [&log_lines](const std::string& line) {
    log_lines.push_back(line);
  };
  Recreate(std::move(options));

  // A stepping clock makes every query "take" tens of milliseconds
  // deterministically, without sleeping.
  SetClockForTest(&SteppingClock);
  server::HttpResponse response = Get("/sparql?" + FollowsQuery());
  SetClockForTest(nullptr);
  EXPECT_EQ(response.status_code, 200);

  ASSERT_EQ(log_lines.size(), 1u);
  EXPECT_NE(log_lines[0].find("slow query"), std::string::npos);
  EXPECT_NE(log_lines[0].find("SELECT"), std::string::npos);

  std::vector<server::QueryRecord> recent = endpoint_->RecentQueries();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_TRUE(recent[0].slow);
  EXPECT_NE(Get("/metrics").body.find("s2rdf_slow_queries_total 1"),
            std::string::npos);
}

// The tsan regression for the old torn-copy /metrics bug: hammer the
// introspection endpoints from several threads while queries (half of
// them failing) run concurrently, then reconcile the final counters.
TEST_F(ObservabilityEndpointTest, MetricsHammerConcurrentWithQueries) {
  constexpr int kQueryThreads = 4;
  constexpr int kQueriesPerThread = 10;
  constexpr int kReaderThreads = 4;
  constexpr int kReadsPerThread = 25;

  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([this, &ok, &failed] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        int status = Get(i % 2 == 0 ? "/sparql?" + FollowsQuery()
                                    : "/sparql?query=NOT%20SPARQL")
                         .status_code;
        (status == 200 ? ok : failed)++;
      }
    });
  }
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([this] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        EXPECT_EQ(Get("/metrics").status_code, 200);
        EXPECT_EQ(Get("/debug/queries").status_code, 200);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(ok.load(), kQueryThreads * kQueriesPerThread / 2);
  EXPECT_EQ(failed.load(), kQueryThreads * kQueriesPerThread / 2);
  std::string body = Get("/metrics").body;
  const int total = kQueryThreads * kQueriesPerThread;
  EXPECT_NE(body.find("s2rdf_queries_total " + std::to_string(total)),
            std::string::npos);
  EXPECT_NE(
      body.find("s2rdf_queries_failed_total " + std::to_string(total / 2)),
      std::string::npos);
  EXPECT_NE(body.find("s2rdf_query_latency_seconds_count " +
                      std::to_string(total)),
            std::string::npos);
}

// --- Table cache metrics ---------------------------------------------------

// The value of an unlabeled metric line "<name> <value>" in `body`.
uint64_t MetricValue(const std::string& body, const std::string& name) {
  const size_t at = body.find("\n" + name + " ");
  EXPECT_NE(at, std::string::npos) << name;
  if (at == std::string::npos) return 0;
  return std::stoull(body.substr(at + name.size() + 2));
}

// On a disk store, a second run of Q1 is served from the table cache, or,
// with a one-byte budget, reads every scanned table from its segment and
// evicts it again; /metrics counts both.
TEST(TableCacheMetricsTest, CountsHitsMissesAndEvictions) {
  const std::string q1 =
      "SELECT * WHERE { ?x <likes> ?w . ?x <follows> ?y . "
      "?y <follows> ?z . ?z <likes> ?w }";
  for (const uint64_t budget : {uint64_t{1}, uint64_t{0}}) {
    SCOPED_TRACE("memory_budget_bytes=" + std::to_string(budget));
    ScopedTempDir dir;
    rdf::Graph g;
    g.AddIris("A", "follows", "B");
    g.AddIris("B", "follows", "C");
    g.AddIris("B", "follows", "D");
    g.AddIris("C", "follows", "D");
    g.AddIris("A", "likes", "I1");
    g.AddIris("A", "likes", "I2");
    g.AddIris("C", "likes", "I2");
    core::S2RdfOptions options;
    options.storage_dir = dir.path();
    options.memory_budget_bytes = budget;
    auto db = core::S2Rdf::Create(std::move(g), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    server::SparqlEndpoint endpoint(db->get());
    server::HttpRequest metrics;
    metrics.method = "GET";
    metrics.path = "/metrics";

    ASSERT_TRUE((*db)->Execute({.query = q1}).ok());
    const std::string before = endpoint.Handle(metrics).body;
    auto second =
        (*db)->Execute({.query = q1, .options = {.collect_profile = true}});
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    const std::string after = endpoint.Handle(metrics).body;
    std::set<std::string> scanned;
    for (const engine::OperatorProfile& op : second->profile_data.operators) {
      if (!op.table.empty()) scanned.insert(op.table);
    }
    ASSERT_EQ(scanned.size(), 4u);

    auto delta = [&](const std::string& name) {
      return MetricValue(after, name) - MetricValue(before, name);
    };
    const uint64_t hits = delta("s2rdf_table_cache_hits_total");
    const uint64_t misses = delta("s2rdf_table_cache_misses_total");
    const uint64_t evictions = delta("s2rdf_table_cache_evictions_total");
    if (budget == 1) {
      EXPECT_EQ(misses, scanned.size());
      EXPECT_EQ(hits, 0u);
      EXPECT_GT(evictions, 0u);
    } else {
      EXPECT_EQ(hits, scanned.size());
      EXPECT_EQ(misses, 0u);
      EXPECT_EQ(MetricValue(after, "s2rdf_table_cache_evictions_total"), 0u);
    }
  }
}

// --- Fault-injection env metrics -------------------------------------------

TEST(FaultEnvMetricsTest, CountsOpsAndInjectedFaults) {
  ScopedTempDir dir;
  MetricsRegistry registry;
  storage::FaultInjectionEnv env;
  env.AttachMetrics(&registry);

  ASSERT_TRUE(env.WriteFile(dir.path() + "/a", "data").ok());
  std::string data;
  ASSERT_TRUE(env.ReadFile(dir.path() + "/a", &data).ok());
  env.FailNextReads(1);
  EXPECT_FALSE(env.ReadFile(dir.path() + "/a", &data).ok());
  ASSERT_TRUE(env.ReadFile(dir.path() + "/a", &data).ok());

  std::string out = registry.RenderPrometheus();
  EXPECT_NE(out.find("s2rdf_faultenv_reads_total 3"), std::string::npos);
  EXPECT_NE(out.find("s2rdf_faultenv_mutations_total 1"), std::string::npos);
  EXPECT_NE(out.find("s2rdf_faultenv_faults_injected_total 1"),
            std::string::npos);
}

// --- Structured event log ---------------------------------------------------

TEST(StructuredLogTest, RenderLogLineEmitsOneJsonObjectPerEvent) {
  std::string line = RenderLogLine(
      LogLevel::kWarn, "unit \"test\"",
      {{"s", "a\"b\nc"}, {"n", uint64_t{42}}, {"f", 1.5}, {"ok", true}});
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_TRUE(JsonStructureBalanced(line)) << line;
  EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos);
  // Strings are escaped; the event name is a string like any other.
  EXPECT_NE(line.find("\"event\":\"unit \\\"test\\\"\""), std::string::npos);
  EXPECT_NE(line.find("\"s\":\"a\\\"b\\nc\""), std::string::npos);
  // Numerics render bare so consumers get real numbers, not strings.
  EXPECT_NE(line.find("\"n\":42"), std::string::npos);
  EXPECT_NE(line.find("\"f\":1.5"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
}

TEST(StructuredLogTest, SinkSeamCapturesAndMinLevelFilters) {
  std::vector<std::string> lines;
  SetLogSinkForTest(
      [&lines](const std::string& line) { lines.push_back(line); });
  SetMinLogLevel(LogLevel::kWarn);
  LogEvent(LogLevel::kInfo, "dropped_below_min_level");
  LogEvent(LogLevel::kError, "kept", {{"k", "v"}});
  SetMinLogLevel(LogLevel::kInfo);
  SetLogSinkForTest({});  // restore the stderr default

  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"event\":\"kept\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"k\":\"v\""), std::string::npos);
  EXPECT_EQ(lines[0].find("dropped_below_min_level"), std::string::npos);
}

TEST(StructuredLogTest, RateLimiterSuppressesWithinWindowAndReportsCount) {
  SetClockForTest(&SteppingClock);  // 10 ms per Allow() call
  LogRateLimiter limiter(0.025);
  uint64_t suppressed = 99;
  EXPECT_TRUE(limiter.Allow("k", &suppressed));  // first event always fires
  EXPECT_EQ(suppressed, 0u);
  EXPECT_FALSE(limiter.Allow("k"));  // +10 ms, inside the window
  EXPECT_FALSE(limiter.Allow("k"));  // +20 ms, still inside
  EXPECT_EQ(limiter.SuppressedFor("k"), 2u);
  // +30 ms >= 25 ms: allowed again, carrying the suppressed count so
  // nothing is silently lost, and the window restarts.
  EXPECT_TRUE(limiter.Allow("k", &suppressed));
  EXPECT_EQ(suppressed, 2u);
  EXPECT_EQ(limiter.SuppressedFor("k"), 0u);
  // Keys rate-limit independently.
  EXPECT_TRUE(limiter.Allow("other"));
  SetClockForTest(nullptr);

  // interval <= 0 disables limiting entirely.
  LogRateLimiter open(0.0);
  EXPECT_TRUE(open.Allow("k"));
  EXPECT_TRUE(open.Allow("k"));
}

// --- Task-pool queue instrumentation ----------------------------------------

TEST(TaskPoolMetricsTest, QueueWaitHistogramObservesEveryHelperHandoff) {
  MetricsRegistry registry;
  TaskPool pool(2);
  pool.AttachMetrics(&registry);

  // Force both helpers to actually dequeue their parked task: each of
  // the three bodies (caller + 2 helpers) blocks until all three have
  // entered, so the caller cannot drain the loop alone. The queue-wait
  // observation happens at dequeue, before the body runs, so by the
  // time ParallelFor returns both handoffs are recorded.
  std::atomic<int> entered{0};
  pool.ParallelFor(3, [&entered](size_t) {
    entered.fetch_add(1);
    while (entered.load() < 3) std::this_thread::yield();
  });

  std::string out = registry.RenderPrometheus();
  EXPECT_NE(out.find("s2rdf_task_pool_queue_wait_seconds_count 2"),
            std::string::npos)
      << out;
  // Drained: depth samples back to zero at render time.
  EXPECT_NE(out.find("s2rdf_task_pool_queue_depth 0"), std::string::npos);
}

// The endpoint attaches the shared pool's metrics to its own registry.
// Destroying the endpoint must leave the pool recording into memory it
// still owns: a query that fans out afterwards makes helper threads
// dequeue tasks and observe their queue wait (under the asan preset a
// write into the dead registry fails the test).
TEST(TaskPoolMetricsTest, EndpointTeardownLeavesPoolMetricsValid) {
  auto db = core::S2Rdf::Create(FanOutGraph(), core::S2RdfOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  { server::SparqlEndpoint endpoint(db->get()); }

  core::QueryRequest request;
  request.query = kFanOutQuery;
  auto result = (*db)->Execute(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Helpers dequeue in FIFO order, so once every pool thread has entered
  // one barrier body, every task the query queued has been dequeued and
  // its wait observed.
  TaskPool* pool = TaskPool::Shared();
  ASSERT_GT(pool->num_threads(), 0);
  const size_t width = pool->ParallelismWidth();
  std::atomic<size_t> entered{0};
  pool->ParallelFor(width, [&](size_t) {
    entered.fetch_add(1);
    while (entered.load() < width) std::this_thread::yield();
  });

  // A registry attached now renders the pool's lifetime series.
  MetricsRegistry registry;
  pool->AttachMetrics(&registry);
  const std::string out = registry.RenderPrometheus();
  EXPECT_NE(out.find("s2rdf_task_pool_queue_wait_seconds_count"),
            std::string::npos);
  EXPECT_EQ(out.find("s2rdf_task_pool_queue_wait_seconds_count 0\n"),
            std::string::npos)
      << out;
}

// --- Trace-id propagation and resource accounting ---------------------------

TEST_F(ObservabilityEndpointTest, TraceIdThreadsFromHeaderToDebugAndProfile) {
  server::HttpResponse response = Get("/sparql?" + FollowsQuery());
  ASSERT_EQ(response.status_code, 200);
  auto header = response.headers.find("X-S2RDF-Trace-Id");
  ASSERT_NE(header, response.headers.end());
  const std::string trace = header->second;
  EXPECT_EQ(trace.size(), 16u);

  // The same id indexes the structured record and the debug page.
  std::vector<server::QueryRecord> recent = endpoint_->RecentQueries();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].trace_id, trace);
  EXPECT_NE(Get("/debug/queries").body.find("trace=" + trace),
            std::string::npos);

  // EXPLAIN ANALYZE prints its own request's id in the profile header,
  // matching the response header of that request.
  server::HttpResponse analyzed =
      Get("/sparql?" + FollowsQuery() + "&explain=analyze");
  ASSERT_EQ(analyzed.status_code, 200);
  auto analyzed_header = analyzed.headers.find("X-S2RDF-Trace-Id");
  ASSERT_NE(analyzed_header, analyzed.headers.end());
  EXPECT_NE(analyzed.body.find("trace: " + analyzed_header->second),
            std::string::npos)
      << analyzed.body;
  EXPECT_NE(analyzed_header->second, trace);

  // Failing requests stay traceable too.
  server::HttpResponse failed = Get("/sparql?query=NOT%20SPARQL");
  ASSERT_EQ(failed.status_code, 400);
  auto failed_header = failed.headers.find("X-S2RDF-Trace-Id");
  ASSERT_NE(failed_header, failed.headers.end());
  EXPECT_EQ(failed_header->second.size(), 16u);
}

TEST_F(ObservabilityEndpointTest, PeakTableBytesAccountedDeterministically) {
  // Extracts the peak_bytes value from an EXPLAIN ANALYZE totals line.
  auto peak_of = [](const std::string& body) -> long {
    size_t pos = body.find("peak_bytes=");
    if (pos == std::string::npos) return -1;
    return std::atol(body.c_str() + pos + sizeof("peak_bytes=") - 1);
  };

  std::string first = Get("/sparql?" + FollowsQuery() + "&explain=analyze").body;
  std::string second =
      Get("/sparql?" + FollowsQuery() + "&explain=analyze").body;
  const long peak = peak_of(first);
  EXPECT_GT(peak, 0) << first;
  // The high-water mark is a property of the plan, not the run.
  EXPECT_EQ(peak, peak_of(second));

  // Every completed query feeds the per-query peak histogram.
  std::string metrics = Get("/metrics").body;
  EXPECT_NE(metrics.find("s2rdf_query_peak_table_bytes_count 2"),
            std::string::npos);
}

TEST_F(ObservabilityEndpointTest, SlowQueryLogCarriesTraceIdAndRateLimits) {
  std::vector<std::string> log_lines;
  server::EndpointOptions options;
  options.slow_query_ms = 1;
  options.slow_query_log = [&log_lines](const std::string& line) {
    log_lines.push_back(line);
  };
  Recreate(std::move(options));  // default 5000 ms log interval

  SetClockForTest(&SteppingClock);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(Get("/sparql?" + FollowsQuery()).status_code, 200);
  }
  SetClockForTest(nullptr);

  // Identical query texts share a rate-limit key: the first slow event
  // logs (with its trace id), the repeats are suppressed but counted.
  ASSERT_EQ(log_lines.size(), 1u);
  std::vector<server::QueryRecord> recent = endpoint_->RecentQueries();
  ASSERT_EQ(recent.size(), 3u);
  // recent is newest-first, so the logged (first) query is recent[2].
  EXPECT_NE(log_lines[0].find("trace=" + recent[2].trace_id),
            std::string::npos)
      << log_lines[0];
  std::string metrics = Get("/metrics").body;
  EXPECT_NE(metrics.find("s2rdf_slow_queries_total 3"), std::string::npos);
  EXPECT_NE(metrics.find("s2rdf_slow_query_log_suppressed_total 2"),
            std::string::npos);

  // interval 0 disables suppression: every slow query logs.
  log_lines.clear();
  server::EndpointOptions open;
  open.slow_query_ms = 1;
  open.slow_query_log_interval_ms = 0;
  open.slow_query_log = [&log_lines](const std::string& line) {
    log_lines.push_back(line);
  };
  Recreate(std::move(open));
  SetClockForTest(&SteppingClock);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(Get("/sparql?" + FollowsQuery()).status_code, 200);
  }
  SetClockForTest(nullptr);
  EXPECT_EQ(log_lines.size(), 3u);
}

TEST_F(ObservabilityEndpointTest, SlowQueryFallsBackToStructuredLog) {
  // Without a slow_query_log callback the event goes to the structured
  // log, same schema as every other event.
  server::EndpointOptions options;
  options.slow_query_ms = 1;
  Recreate(std::move(options));

  std::vector<std::string> lines;
  SetLogSinkForTest(
      [&lines](const std::string& line) { lines.push_back(line); });
  SetClockForTest(&SteppingClock);
  EXPECT_EQ(Get("/sparql?" + FollowsQuery()).status_code, 200);
  SetClockForTest(nullptr);
  SetLogSinkForTest({});

  std::vector<server::QueryRecord> recent = endpoint_->RecentQueries();
  ASSERT_EQ(recent.size(), 1u);
  bool found = false;
  for (const std::string& line : lines) {
    if (line.find("\"event\":\"slow_query\"") == std::string::npos) continue;
    found = true;
    EXPECT_NE(line.find("\"trace_id\":\"" + recent[0].trace_id + "\""),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"query\":"), std::string::npos);
    EXPECT_TRUE(JsonStructureBalanced(line)) << line;
  }
  EXPECT_TRUE(found) << "no slow_query event reached the structured log";
}

TEST_F(ObservabilityEndpointTest, RecentQueryRingStaysBoundedUnderChurn) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 40;  // 160 completions >> the 64-slot ring
  static constexpr size_t kRingCapacity = 64;

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        Get((t + i) % 2 == 0 ? "/sparql?" + FollowsQuery()
                             : "/sparql?query=NOT%20SPARQL");
      }
    });
  }
  // Readers race ring eviction: snapshots must stay bounded and
  // well-formed at every point, never exposing a torn record.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([this, &done] {
      while (!done.load()) {
        std::vector<server::QueryRecord> recent = endpoint_->RecentQueries();
        EXPECT_LE(recent.size(), kRingCapacity);
        for (const server::QueryRecord& r : recent) {
          EXPECT_EQ(r.trace_id.size(), 16u);
          EXPECT_GT(r.id, 0u);
        }
        EXPECT_EQ(Get("/debug/queries").status_code, 200);
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[static_cast<size_t>(t)].join();
  done.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Steady state: the ring holds exactly its capacity. Completion
  // order under concurrency is arbitrary, but ids never repeat.
  std::vector<server::QueryRecord> recent = endpoint_->RecentQueries();
  ASSERT_EQ(recent.size(), kRingCapacity);
  std::set<uint64_t> ids;
  for (const server::QueryRecord& r : recent) ids.insert(r.id);
  EXPECT_EQ(ids.size(), recent.size());
  EXPECT_NE(Get("/debug/queries").body.find("recent (64):"),
            std::string::npos);
  EXPECT_NE(Get("/metrics").body.find(
                "s2rdf_queries_total " + std::to_string(kWriters * kPerWriter)),
            std::string::npos);
}

}  // namespace
}  // namespace s2rdf
