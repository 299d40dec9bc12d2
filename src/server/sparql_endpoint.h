#ifndef S2RDF_SERVER_SPARQL_ENDPOINT_H_
#define S2RDF_SERVER_SPARQL_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/s2rdf.h"
#include "server/http.h"

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
// Connections are persistent (HTTP/1.1 keep-alive, pipelining allowed)
// and no request is handed from one thread to another. A fixed set of
// worker threads waits on one epoll set that holds every open connection,
// each armed for one wakeup at a time (EPOLLONESHOT). The worker the
// kernel wakes reads what the connection holds without blocking, answers
// every complete request in order on its own thread, and re-arms the
// connection; an incomplete request stays buffered on the connection, so
// a silent or slow client holds no worker. The acceptor thread only
// accepts and admits: at most num_workers + queue_capacity connections
// are open at once. At that cap it closes the longest-idle connection
// that has been answered and holds no unread bytes, and answers the new
// one 503 only when no connection is idle. It also closes connections
// idle for longer than a fixed timeout. Query errors map onto HTTP
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
  // Worker threads serving requests. Each one waits for any open
  // connection to become readable and serves the request that woke it;
  // a connection holds a worker only while one of its requests is in
  // service. Intra-query morsel parallelism does NOT multiply this:
  // every operator input large enough to fan out draws helper tasks
  // from the one process-wide TaskPool (sized to the hardware), and a
  // query whose helpers are busy simply runs its morsels on its own
  // worker thread — so total execution threads are bounded by
  // num_workers + TaskPool::Shared()'s helpers regardless of load, and a
  // saturated pool can never deadlock the endpoint.
  int num_workers = 4;
  // Open connections allowed beyond num_workers. At num_workers +
  // queue_capacity open connections, a new one replaces the longest-idle
  // connection, or is answered 503 when every open connection holds a
  // request in service or waiting for a worker.
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
  // Test hook, run by the worker before serving each request.
  std::function<void()> worker_hook;
};

// Point-in-time server counters (all cumulative since Start except
// in_flight / queue_depth). queue_depth counts open connections that
// hold a request no worker has started.
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
  // acceptor thread plus num_workers workers. Returns the bound port.
  StatusOr<int> Start(int port);

  // Closes the listener, lets the requests in service and those already
  // waiting for a worker finish, closes every other connection and joins
  // all threads.
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

  // One open client connection. A worker that claims it (serving) is the
  // only thread that touches its socket and stream until it re-arms or
  // closes it; everything else reads it under conn_mu_ only while it is
  // not being served.
  struct Connection {
    int fd = -1;
    HttpRequestStream stream;
    bool serving = false;
    // Whether a response has gone out on it: a connection that has sent
    // nothing yet may have its first request in flight, so it is never
    // evicted at the cap.
    bool answered = false;
    // Accept or last re-arm: where its idle time and the bound on its
    // next request's admission wait start.
    MonotonicTime armed_at{};
    // spells_ended_ when it was armed.
    uint64_t armed_spell = 0;
  };

  void AcceptLoop();
  // Admits accepted socket `fd`, evicting an idle connection at the cap,
  // or answers it 503 when none is idle.
  void Admit(int fd);
  // The 503 path: waits briefly for the request, answers and closes.
  void Reject(int fd);
  // Closes connections idle for kIdleTimeout or longer.
  void CloseIdleConnections();
  void WorkerLoop();
  // Claims connection `id` after its wakeup, serves it and re-arms or
  // closes it. A connection closed since the wakeup is skipped.
  void ServeReady(uint64_t id);
  // Reads what `conn` holds and answers each complete request; false
  // when the connection must close. `admission_wait_s` is the bound on
  // the first request's wait for this worker.
  bool ServeConnection(Connection* conn, double admission_wait_s);
  // Sends head and body in one gathered write; false when the peer is
  // gone.
  bool WriteResponse(int client, const HttpResponse& response);

  // The open connections as /metrics, /statusz and Stats() report them.
  struct ConnectionCounts {
    size_t open = 0;
    // Not in service and holding no unread bytes.
    size_t idle = 0;
    // Holding a request no worker has started.
    size_t queued = 0;
    size_t busy_workers = 0;
  };
  ConnectionCounts CountConnections() const S2RDF_EXCLUDES(conn_mu_);

  // /sparql behind parameter validation: runs the query with full
  // bookkeeping (in-flight tracking, counters, histograms, ring buffer,
  // slow-query log).
  // `query_request` is taken by value: RunQuery stamps the minted trace
  // id into its options before execution. `rendering` picks the body of
  // a successful response.
  HttpResponse RunQuery(const HttpRequest& request,
                        core::QueryRequest query_request,
                        QueryRendering rendering);

  // POST /ingest: N-Triples body appended as one atomic batch, its
  // ExtVP reductions maintained before it commits. Query parameters are
  // ignored.
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
  const int num_workers_;
  const size_t max_connections_;
  // Set by Start, closed by Stop after the threads that use them joined.
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  // An eventfd that turns readable, and stays so, when Stop begins: it
  // wakes the acceptor and every worker.
  int stop_fd_ = -1;
  std::atomic<bool> running_{false};

  // --- Open connections and admission ------------------------------------
  mutable Mutex conn_mu_;
  std::map<uint64_t, Connection> connections_ S2RDF_GUARDED_BY(conn_mu_);
  uint64_t next_connection_id_ S2RDF_GUARDED_BY(conn_mu_) = 1;
  bool stopping_ S2RDF_GUARDED_BY(conn_mu_) = false;
  int busy_workers_ S2RDF_GUARDED_BY(conn_mu_) = 0;
  // Spells with every worker busy: when the current or last one started,
  // and how many have ended. A request whose connection was armed before
  // a spell ended may have waited for a worker.
  MonotonicTime spell_start_ S2RDF_GUARDED_BY(conn_mu_){};
  uint64_t spells_ended_ S2RDF_GUARDED_BY(conn_mu_) = 0;

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
  Histogram* admission_wait_seconds_ = nullptr;
  Counter* connections_idle_closed_ = nullptr;
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

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace s2rdf::server

#endif  // S2RDF_SERVER_SPARQL_ENDPOINT_H_
