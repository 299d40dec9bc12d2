#ifndef S2RDF_SERVER_SPARQL_ENDPOINT_H_
#define S2RDF_SERVER_SPARQL_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/s2rdf.h"
#include "server/http.h"
#include "server/worker_pool.h"

// SPARQL Protocol endpoint over an S2RDF store: the network face an
// RDF store is expected to have. Implements the query operation of the
// W3C SPARQL 1.1 Protocol:
//
//   GET  /sparql?query=<urlencoded>[&timeout=<ms>][&limit=<rows>]
//                [&explain=plan|analyze][&trace=1][&optimizer=paper|cost]
//   POST /sparql   (application/x-www-form-urlencoded: query=...)
//   POST /sparql   (application/sparql-query: raw query body)
//   GET  /health   liveness probe ("ok <git-sha>")
//   GET  /metrics  Prometheus text exposition of server metrics
//   GET  /debug/queries  in-flight and recently completed queries
//   GET  /statusz  one-page operational summary (store, cache, pools,
//                  build info, uptime)
//
// `explain=analyze` returns the EXPLAIN ANALYZE profile tree (operator
// rows/timings with estimated-vs-actual, chosen tables with layout +
// selectivity factor) as text/plain instead of the solutions;
// `explain=plan` compiles but does not execute, returning the plan with
// its cost estimates; `trace=1` returns Chrome trace_event JSON for
// chrome://tracing / Perfetto. `optimizer=paper|cost` selects the
// Optimize stage (paper heuristic vs cost-based, default paper).
//
// Result format is chosen from the Accept header (JSON by default;
// XML, CSV, TSV supported). GET / serves a small status page.
//
// Connections are served by a fixed worker pool over a bounded queue;
// when the queue is full new requests are answered 503 instead of
// queueing unboundedly (admission control). Query errors map onto HTTP
// statuses: kInvalidArgument -> 400, kNotFound -> 404,
// kDeadlineExceeded -> 408, kCancelled/kResourceExhausted -> 503,
// kUnimplemented -> 501, everything else -> 500.
//
// Observability: every metric lives in a per-endpoint MetricsRegistry
// (common/metrics.h) — counters for query outcomes (including
// admission-rejected and failed queries, which never reach the
// cumulative engine metrics), gauges sampled at render time, and
// log-bucketed histograms for query/stage latencies, scanned rows and
// shuffle volume. A ring buffer of recent queries powers /debug/queries
// and the slow-query log.

namespace s2rdf::server {

struct EndpointOptions {
  // Worker threads executing queries (one connection each). Intra-query
  // morsel parallelism does NOT multiply this: every operator input
  // large enough to fan out draws helper tasks from the one process-wide
  // TaskPool (sized to the hardware), and a query whose helpers are busy
  // simply runs its morsels on its own worker thread — so total
  // execution threads are bounded by num_workers + TaskPool::Shared()'s
  // helpers regardless of load, and a saturated pool can never deadlock
  // the endpoint.
  int num_workers = 4;
  // Connections allowed to wait beyond the busy workers; the next one
  // is rejected with 503.
  size_t queue_capacity = 16;
  // Applied to requests that carry no ?timeout= parameter (0 = none).
  uint64_t default_timeout_ms = 0;
  // Upper bound on client-requested timeouts (0 = unbounded).
  uint64_t max_timeout_ms = 0;
  // Queries whose total wall time reaches this are counted in
  // s2rdf_slow_queries_total, flagged in /debug/queries and logged via
  // `slow_query_log` (0 = disabled).
  uint64_t slow_query_ms = 0;
  // Sink for slow-query log lines; the structured event log when unset.
  std::function<void(const std::string&)> slow_query_log;
  // Rate limit for the slow-query log: at most one line per query text
  // per this interval; further hits only bump a suppressed count that
  // the next emitted line carries (`suppressed=N`). 0 = log every slow
  // query. Protects the sink from a hot pathological query.
  uint64_t slow_query_log_interval_ms = 5000;
  // Test hook, run by the worker before handling each connection.
  std::function<void()> worker_hook;
};

// Point-in-time server counters (all cumulative since Start except
// in_flight / queue_depth).
struct EndpointStats {
  uint64_t queries_total = 0;
  uint64_t queries_failed_total = 0;
  uint64_t queries_rejected_total = 0;
  uint64_t in_flight = 0;
  uint64_t queue_depth = 0;
  uint64_t slow_queries_total = 0;
  // Sum of per-query engine metrics over all successful queries.
  engine::ExecMetrics cumulative;
};

// What a successful /sparql response carries: the answer in the
// negotiated result format, or one inspection rendering instead.
enum class QueryRendering {
  kAnswer,   // Solutions, ASK verdict or graph.
  kPlan,     // ?explain=plan: the compiled plan with its estimates.
  kProfile,  // ?explain=analyze: the EXPLAIN ANALYZE text.
  kTrace,    // ?trace=1: Chrome trace_event JSON.
};

// One completed query in the /debug/queries ring buffer.
struct QueryRecord {
  uint64_t id = 0;
  // Request-scoped trace id (16 hex chars), also returned to the client
  // as the X-S2RDF-Trace-Id response header.
  std::string trace_id;
  std::string query;  // Truncated for display.
  int http_status = 0;
  uint64_t rows = 0;
  double parse_ms = 0.0;
  double compile_ms = 0.0;
  double exec_ms = 0.0;
  // Parse + compile + execute: what s2rdf_query_latency_seconds and the
  // slow-query threshold measure.
  double total_ms = 0.0;
  // Rendering the response body after execution (result formatting,
  // EXPLAIN text or trace JSON), outside total_ms; and the body's size.
  double format_ms = 0.0;
  uint64_t response_bytes = 0;
  bool slow = false;
  std::string error;  // Status message for failed queries.
  // Which Optimize stage planned the query ("paper" or "cost"; empty
  // for failures and a DESCRIBE without WHERE) and the plan's
  // fingerprint hash — two /debug/queries entries with the same
  // fingerprint ran the same plan shape.
  std::string optimizer_mode;
  uint64_t plan_fingerprint = 0;
};

class SparqlEndpoint {
 public:
  // `db` must outlive the endpoint.
  explicit SparqlEndpoint(core::S2Rdf* db,
                          EndpointOptions options = EndpointOptions());

  // Pure request -> response mapping (transport-independent; this is
  // what the tests exercise and what the worker threads call).
  HttpResponse Handle(const HttpRequest& request);

  // Starts the socket server on 127.0.0.1:`port` (0 = ephemeral): an
  // acceptor thread plus the worker pool. Returns the bound port.
  StatusOr<int> Start(int port);

  // Stops accepting, drains admitted connections, joins all threads.
  void Stop();

  EndpointStats Stats() const;

  // Snapshot of the completed-query ring buffer, most recent first.
  std::vector<QueryRecord> RecentQueries() const;

  // The endpoint's metric registry (tests and embedders may add their
  // own metrics; they render on /metrics alongside the built-ins).
  MetricsRegistry& registry() { return registry_; }

  ~SparqlEndpoint();

 private:
  // A query currently inside db_.Execute.
  struct InFlightQuery {
    std::string trace_id;
    std::string query;  // Truncated for display.
    MonotonicTime start{};
  };

  // Admission ticket of one query: the /debug/queries sequence id plus
  // the request-scoped trace id every downstream artifact carries.
  struct QueryTicket {
    uint64_t id = 0;
    std::string trace_id;
  };

  void AcceptLoop();
  // Reads one request from `client`, handles it, writes the response.
  void HandleConnection(int client);
  // Reads head + Content-Length body; empty string on read failure.
  std::string ReadRequest(int client);
  void WriteResponse(int client, const HttpResponse& response);

  // /sparql behind parameter validation: runs the query with full
  // bookkeeping (in-flight tracking, counters, histograms, ring buffer,
  // slow-query log).
  // `query_request` is taken by value: RunQuery stamps the minted trace
  // id into its options before execution. `rendering` picks the body of
  // a successful response.
  HttpResponse RunQuery(const HttpRequest& request,
                        core::QueryRequest query_request,
                        QueryRendering rendering);

  // POST /ingest: N-Triples body appended as one atomic batch
  // (?defer=1 skips ExtVP maintenance, marking sources stale;
  // ?refresh=1 instead recomputes everything stale).
  HttpResponse RunIngest(const HttpRequest& request);

  // Registers every built-in metric on registry_.
  void RegisterMetrics();

  QueryTicket BeginQuery(const std::string& query_text)
      S2RDF_EXCLUDES(queries_mu_);
  void FinishQuery(QueryRecord record) S2RDF_EXCLUDES(queries_mu_);

  // Emits (or rate-limit-suppresses) one slow-query log line.
  void LogSlowQuery(const QueryTicket& ticket, double total_ms,
                    const std::string& query_text);

  HttpResponse DebugQueriesResponse() const;
  HttpResponse StatuszResponse() const;

  core::S2Rdf& db_;
  EndpointOptions options_;
  // Atomic: Stop() closes the listener while AcceptLoop reads it.
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::unique_ptr<WorkerPool> pool_;

  // --- Metrics (owned by registry_; raw pointers are stable) -------------
  MetricsRegistry registry_;
  Counter* queries_total_ = nullptr;
  Counter* queries_failed_ = nullptr;
  Counter* queries_rejected_ = nullptr;
  Counter* slow_queries_ = nullptr;
  // POST /ingest bookkeeping.
  Counter* ingest_batches_ = nullptr;
  Counter* ingest_triples_ = nullptr;
  Counter* ingest_failures_ = nullptr;
  // Cumulative engine metrics over successful queries. Five independent
  // atomics (the old mutex-guarded ExecMetrics copy could tear between
  // fields under concurrent /metrics renders).
  Counter* exec_input_ = nullptr;
  Counter* exec_intermediate_ = nullptr;
  Counter* exec_comparisons_ = nullptr;
  Counter* exec_shuffled_ = nullptr;
  Counter* exec_output_ = nullptr;
  Histogram* latency_seconds_ = nullptr;
  Histogram* parse_seconds_ = nullptr;
  Histogram* compile_seconds_ = nullptr;
  Histogram* exec_seconds_ = nullptr;
  Histogram* format_seconds_ = nullptr;
  Histogram* shuffle_bytes_ = nullptr;
  Histogram* rows_scanned_ = nullptr;
  // Per-query high-water mark of materialized Table bytes.
  Histogram* peak_table_bytes_ = nullptr;
  Counter* slow_queries_suppressed_ = nullptr;
  std::atomic<uint64_t> in_flight_{0};

  // Slow-query log rate limiting (keyed by truncated query text).
  LogRateLimiter slow_query_limiter_;
  // Endpoint start time, for /statusz uptime.
  const MonotonicTime started_at_;
  // Instance salt mixed into trace ids so two endpoints in one process
  // (or across restarts) never mint colliding ids.
  const uint64_t trace_salt_;

  // --- Query introspection ----------------------------------------------
  mutable Mutex queries_mu_;
  uint64_t next_query_id_ S2RDF_GUARDED_BY(queries_mu_) = 1;
  std::map<uint64_t, InFlightQuery> in_flight_queries_
      S2RDF_GUARDED_BY(queries_mu_);
  // Most recent completions, newest at the back; bounded.
  std::deque<QueryRecord> recent_ S2RDF_GUARDED_BY(queries_mu_);
};

}  // namespace s2rdf::server

#endif  // S2RDF_SERVER_SPARQL_ENDPOINT_H_
