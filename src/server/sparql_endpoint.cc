#include "server/sparql_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/build_info.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/task_pool.h"
#include "core/ingest.h"
#include "engine/profile.h"
#include "sparql/results_io.h"

namespace s2rdf::server {

namespace {

// Query text is truncated to this many characters in the in-flight map,
// the ring buffer and log lines (display only; execution sees it all).
constexpr size_t kQueryDisplayChars = 160;

// Completed queries kept for /debug/queries.
constexpr size_t kRecentQueryCapacity = 64;

// A connection that has sent nothing for this long is closed by the
// acceptor, which looks for such connections at least this often.
constexpr auto kIdleTimeout = std::chrono::seconds(5);
constexpr int kIdleSweepMs = 500;

// How long the 503 path waits for a rejected client's request, which it
// reads before answering so that the close does not reset the answer.
constexpr int kRejectWaitMs = 100;

// Bytes a worker reads from a socket per recv.
constexpr size_t kReadChunkBytes = 16 << 10;

// epoll data of the stop eventfd; connection ids start at 1.
constexpr uint64_t kStopToken = 0;

// Bytes the kernel holds for socket `fd` that nobody has read yet.
int UnreadBytes(int fd) {
  int bytes = 0;
  return ioctl(fd, FIONREAD, &bytes) == 0 ? bytes : 0;
}

// Bytes a shuffled tuple is accounted as in s2rdf_shuffle_bytes: one
// 64-bit term id per column, three columns as the working-set estimate
// (the repartition model counts tuples, not encoded widths).
constexpr uint64_t kShuffleBytesPerTuple = 24;

std::string TruncateForDisplay(const std::string& text) {
  if (text.size() <= kQueryDisplayChars) return text;
  return text.substr(0, kQueryDisplayChars) + "...";
}

using sparql::ResultFormat;

// Picks a result serialization from the Accept header.
ResultFormat NegotiateFormat(const std::string& accept) {
  if (accept.find("sparql-results+xml") != std::string::npos ||
      accept.find("application/xml") != std::string::npos) {
    return ResultFormat::kXml;
  }
  if (accept.find("text/csv") != std::string::npos) {
    return ResultFormat::kCsv;
  }
  if (accept.find("text/tab-separated-values") != std::string::npos) {
    return ResultFormat::kTsv;
  }
  return ResultFormat::kJson;
}

const char* ContentTypeFor(ResultFormat format) {
  switch (format) {
    case ResultFormat::kJson:
      return "application/sparql-results+json";
    case ResultFormat::kXml:
      return "application/sparql-results+xml";
    case ResultFormat::kCsv:
      return "text/csv; charset=utf-8";
    case ResultFormat::kTsv:
      return "text/tab-separated-values; charset=utf-8";
  }
  return "text/plain";
}

// The single Status -> HTTP mapping for the endpoint.
int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kDeadlineExceeded:
      return 408;
    case StatusCode::kUnimplemented:
      return 501;
    case StatusCode::kCancelled:
    case StatusCode::kResourceExhausted:
      return 503;
    default:
      return 500;
  }
}

// SPARQL Protocol error responses carry a human-readable body
// (text/plain is explicitly allowed by the spec).
HttpResponse ErrorResponse(const Status& status) {
  HttpResponse response;
  response.status_code = HttpStatusForCode(status.code());
  response.content_type = "text/plain; charset=utf-8";
  response.body = status.ToString() + "\n";
  return response;
}

// Parses a non-negative integer request parameter; false on garbage.
bool ParseParam(const std::map<std::string, std::string>& params,
                const std::string& name, uint64_t* out, bool* present) {
  *present = false;
  auto it = params.find(name);
  if (it == params.end()) return true;
  long long value = 0;
  if (!ParseInt64(it->second, &value) || value < 0) return false;
  *out = static_cast<uint64_t>(value);
  *present = true;
  return true;
}

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

std::string FormatHex64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Instance salt for trace ids: the monotonic clock reading at
// construction, dispersed through splitmix64. Unique enough that two
// endpoints (or two runs) never mint colliding ids, while staying off
// the banned nondeterminism primitives (clock seam, seeded generator).
uint64_t MakeTraceSalt() {
  uint64_t seed = static_cast<uint64_t>(
      MonotonicNow().time_since_epoch().count());
  return SplitMix64(seed).Next();
}

// Fills `response`'s body and content type from a successful query: the
// plan, the profile or the trace when `rendering` asks for one, else the
// graph, the ASK verdict or the solutions in `format`. Plan and profile
// text is rendered here, the one place that reads it.
void RenderQueryResponse(const core::QueryResult& result,
                         const std::string& query_text,
                         const rdf::Dictionary& dict, ResultFormat format,
                         QueryRendering rendering, HttpResponse* response) {
  switch (rendering) {
    case QueryRendering::kPlan:
      // Compile-only: report the chosen plan with its estimates.
      response->content_type = "text/plain; charset=utf-8";
      response->body = "optimizer: " + result.optimizer_mode +
                       "\nfingerprint: " +
                       FormatHex64(result.plan_fingerprint) + "\n" +
                       result.plan->ToString();
      return;
    case QueryRendering::kProfile:
      response->content_type = "text/plain; charset=utf-8";
      response->body = engine::RenderProfileText(result.profile_data);
      return;
    case QueryRendering::kTrace:
      response->content_type = "application/json; charset=utf-8";
      response->body =
          engine::RenderTraceJson(result.profile_data, query_text);
      return;
    case QueryRendering::kAnswer:
      break;
  }
  if (result.is_graph) {
    // CONSTRUCT/DESCRIBE: the result is a graph, not solutions.
    response->content_type = "application/n-triples; charset=utf-8";
    response->body = result.graph_ntriples;
    return;
  }
  if (result.is_ask) {
    if (format == ResultFormat::kXml) {
      response->content_type = ContentTypeFor(ResultFormat::kXml);
      response->body = sparql::AskToXml(result.ask_result);
    } else {
      response->content_type = ContentTypeFor(ResultFormat::kJson);
      response->body = sparql::AskToJson(result.ask_result);
    }
    return;
  }
  response->content_type = ContentTypeFor(format);
  response->body = sparql::WriteResults(result.table, dict, format);
}

}  // namespace

SparqlEndpoint::SparqlEndpoint(core::S2Rdf* db, EndpointOptions options)
    : db_(*db),
      options_(std::move(options)),
      num_workers_(std::max(1, options_.num_workers)),
      max_connections_(static_cast<size_t>(num_workers_) +
                       options_.queue_capacity),
      slow_query_limiter_(
          static_cast<double>(options_.slow_query_log_interval_ms) / 1000.0),
      started_at_(MonotonicNow()),
      trace_salt_(MakeTraceSalt()) {
  RegisterMetrics();
}

void SparqlEndpoint::RegisterMetrics() {
  queries_total_ = registry_.AddCounter(
      "s2rdf_queries_total", "Queries admitted to execution.");
  queries_failed_ = registry_.AddCounter(
      "s2rdf_queries_failed_total",
      "Admitted queries that returned an error (parse, compile or "
      "execution failure).");
  queries_rejected_ = registry_.AddCounter(
      "s2rdf_queries_rejected_total",
      "Connections rejected with 503 by admission control.");
  connections_idle_closed_ = registry_.AddCounter(
      "s2rdf_connections_idle_closed_total",
      "Connections closed for idling past the timeout, or evicted at the "
      "connection cap to admit a new one.");
  slow_queries_ = registry_.AddCounter(
      "s2rdf_slow_queries_total",
      "Queries at or above EndpointOptions::slow_query_ms.");
  slow_queries_suppressed_ = registry_.AddCounter(
      "s2rdf_slow_query_log_suppressed_total",
      "Slow-query log lines dropped by the per-query-text rate limit.");
  const BuildInfo& build = GetBuildInfo();
  registry_.AddInfo(
      "s2rdf_build_info",
      "Identity of the running binary (constant 1; payload in labels).",
      std::string("sha=\"") + build.git_sha + "\",build=\"" +
          build.build_type + "\",compiler=\"" + build.compiler + "\"");
  registry_.AddGauge("s2rdf_queries_in_flight",
                     "Queries currently inside Execute.", [this]() {
                       return in_flight_.load(std::memory_order_relaxed);
                     });
  registry_.AddGauge(
      "s2rdf_queue_depth",
      "Open connections holding a request no worker has started.",
      [this]() { return CountConnections().queued; });
  registry_.AddGauge("s2rdf_workers_busy",
                     "Endpoint workers currently serving a request.",
                     [this]() { return CountConnections().busy_workers; });
  registry_.AddGauge("s2rdf_connections_open", "Client connections open now.",
                     [this]() { return CountConnections().open; });
  admission_wait_seconds_ = registry_.AddHistogram(
      "s2rdf_admission_wait_seconds",
      "Per request, a bound on its wait for a free worker: 0 when a "
      "waiting worker took it, else from the later of its connection's "
      "accept or re-arm and the start of the all-workers-busy spell it "
      "waited out.",
      LogBuckets(1e-5, 4.0, 12));
  exec_input_ = registry_.AddCounter(
      "s2rdf_exec_input_tuples_total",
      "Base-table tuples scanned by successful queries.");
  exec_intermediate_ = registry_.AddCounter(
      "s2rdf_exec_intermediate_tuples_total",
      "Intermediate tuples produced by successful queries.");
  exec_comparisons_ = registry_.AddCounter(
      "s2rdf_exec_join_comparisons_total",
      "Pairwise join comparisons performed by successful queries.");
  exec_shuffled_ = registry_.AddCounter(
      "s2rdf_exec_shuffled_tuples_total",
      "Tuples crossing partitions under the repartition model.");
  exec_output_ = registry_.AddCounter(
      "s2rdf_exec_output_tuples_total",
      "Result tuples returned by successful queries.");
  registry_.AddGauge("s2rdf_catalog_materialized_tables",
                     "Tables materialized in the catalog.", [this]() {
                       return db_.catalog().NumMaterializedTables();
                     });
  registry_.AddGauge("s2rdf_catalog_cached_bytes",
                     "Bytes of tables resident in memory.",
                     [this]() { return db_.catalog().CachedBytes(); });
  registry_.AddGauge("s2rdf_lazy_extvp_pairs_computed",
                     "ExtVP reductions built by the lazy path.",
                     [this]() { return db_.lazy_pairs_computed(); });
  registry_.AddGauge("s2rdf_storage_corruptions_detected",
                     "Checksum failures detected by the catalog.", [this]() {
                       return db_.catalog().corruptions_detected();
                     });
  registry_.AddGauge("s2rdf_queries_degraded",
                     "Queries that fell back to superset tables.",
                     [this]() { return db_.catalog().queries_degraded(); });
  registry_.AddGauge("s2rdf_recovery_quarantined_tables",
                     "Tables quarantined by startup recovery.",
                     [this]() { return db_.catalog().quarantined_tables(); });
  registry_.AddGauge("s2rdf_read_retries_total",
                     "Transient-read retry attempts by the catalog.",
                     [this]() { return db_.catalog().read_retries(); });
  registry_.AddGauge("s2rdf_table_cache_hits_total",
                     "Committed-table loads served from the table cache.",
                     [this]() { return db_.catalog().cache_hits(); });
  registry_.AddGauge("s2rdf_table_cache_misses_total",
                     "Committed-table loads read from a segment file.",
                     [this]() { return db_.catalog().cache_misses(); });
  registry_.AddGauge("s2rdf_table_cache_evictions_total",
                     "Tables the memory budget evicted from the cache.",
                     [this]() { return db_.catalog().cache_evictions(); });
  ingest_batches_ = registry_.AddCounter(
      "s2rdf_ingest_batches_total", "Batches committed via POST /ingest.");
  ingest_triples_ = registry_.AddCounter(
      "s2rdf_ingest_triples_total",
      "New triples added by POST /ingest (post-dedup).");
  ingest_failures_ = registry_.AddCounter(
      "s2rdf_ingest_failures_total",
      "POST /ingest requests that failed to parse or commit.");
  // Helper threads of the process-wide morsel pool. Fixed at first use
  // and shared by every in-flight query, so total execution threads
  // stay at num_workers + this, independent of load.
  registry_.AddGauge("s2rdf_task_pool_threads",
                     "Helper threads in the shared morsel pool.", []() {
                       return static_cast<uint64_t>(
                           TaskPool::Shared()->num_threads());
                     });
  // Shared-pool saturation: queue depth gauge + queue-wait histogram
  // (registered by the pool itself so the instrumentation lives next to
  // the queue it measures). The pool owns the histogram, so it outlives
  // this endpoint's registry safely.
  TaskPool::Shared()->AttachMetrics(&registry_);
  latency_seconds_ = registry_.AddHistogram(
      "s2rdf_query_latency_seconds",
      "End-to-end query wall time (parse + compile + execute).",
      LatencySecondsBuckets());
  parse_seconds_ = registry_.AddHistogram(
      "s2rdf_parse_seconds", "Query parse stage wall time.",
      LatencySecondsBuckets());
  compile_seconds_ = registry_.AddHistogram(
      "s2rdf_compile_seconds",
      "Query compile stage wall time (incl. lazy ExtVP).",
      LatencySecondsBuckets());
  exec_seconds_ = registry_.AddHistogram(
      "s2rdf_exec_seconds", "Plan execution stage wall time.",
      LatencySecondsBuckets());
  format_seconds_ = registry_.AddHistogram(
      "s2rdf_format_seconds",
      "Response body rendering wall time of successful queries (after "
      "execution; not part of s2rdf_query_latency_seconds).",
      LatencySecondsBuckets());
  shuffle_bytes_ = registry_.AddHistogram(
      "s2rdf_shuffle_bytes",
      "Estimated shuffle volume per successful query "
      "(shuffled tuples x 24 bytes).",
      LogBuckets(64, 4.0, 16));
  rows_scanned_ = registry_.AddHistogram(
      "s2rdf_rows_scanned",
      "Base-table rows scanned per successful query.",
      LogBuckets(1, 4.0, 16));
  peak_table_bytes_ = registry_.AddHistogram(
      "s2rdf_query_peak_table_bytes",
      "Per-query high-water mark of simultaneously-live materialized "
      "Table bytes.",
      LogBuckets(1024, 4.0, 16));
}

SparqlEndpoint::QueryTicket SparqlEndpoint::BeginQuery(
    const std::string& query_text) {
  MutexLock lock(&queries_mu_);
  QueryTicket ticket;
  ticket.id = next_query_id_++;
  // Deterministically derived from (instance salt, sequence id):
  // collision-free within an endpoint, salted across endpoints.
  ticket.trace_id = FormatHex64(SplitMix64(trace_salt_ ^ ticket.id).Next());
  InFlightQuery entry;
  entry.trace_id = ticket.trace_id;
  entry.query = TruncateForDisplay(query_text);
  entry.start = MonotonicNow();
  in_flight_queries_.emplace(ticket.id, std::move(entry));
  return ticket;
}

void SparqlEndpoint::FinishQuery(QueryRecord record) {
  MutexLock lock(&queries_mu_);
  in_flight_queries_.erase(record.id);
  recent_.push_back(std::move(record));
  while (recent_.size() > kRecentQueryCapacity) recent_.pop_front();
}

std::vector<QueryRecord> SparqlEndpoint::RecentQueries() const {
  MutexLock lock(&queries_mu_);
  return {recent_.rbegin(), recent_.rend()};
}

HttpResponse SparqlEndpoint::DebugQueriesResponse() const {
  std::string out;
  {
    MutexLock lock(&queries_mu_);
    out += "in-flight (" + std::to_string(in_flight_queries_.size()) + "):\n";
    for (const auto& [id, q] : in_flight_queries_) {
      out += "  #" + std::to_string(id) + "  trace=" + q.trace_id +
             "  elapsed=" + FormatMs(MillisSince(q.start)) + " ms  " +
             q.query + "\n";
    }
    out += "recent (" + std::to_string(recent_.size()) + "):\n";
    for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
      const QueryRecord& r = *it;
      out += "  #" + std::to_string(r.id) + "  trace=" + r.trace_id +
             "  status=" + std::to_string(r.http_status);
      if (r.error.empty()) {
        out += "  rows=" + std::to_string(r.rows) +
               "  parse=" + FormatMs(r.parse_ms) +
               " compile=" + FormatMs(r.compile_ms) +
               " exec=" + FormatMs(r.exec_ms) +
               " total=" + FormatMs(r.total_ms) +
               " ms  format=" + FormatMs(r.format_ms) +
               " ms  bytes=" + std::to_string(r.response_bytes);
        if (!r.optimizer_mode.empty()) {
          out += "  opt=" + r.optimizer_mode +
                 " plan=" + FormatHex64(r.plan_fingerprint);
        }
      } else {
        out += "  total=" + FormatMs(r.total_ms) + " ms  error=" + r.error;
      }
      if (r.slow) out += "  SLOW";
      out += "  " + r.query + "\n";
    }
  }
  HttpResponse response;
  response.content_type = "text/plain; charset=utf-8";
  response.body = out;
  return response;
}

HttpResponse SparqlEndpoint::StatuszResponse() const {
  const BuildInfo& build = GetBuildInfo();
  const storage::Catalog& catalog = db_.catalog();
  std::string out = "s2rdf statusz\n";
  out += std::string("build: sha=") + build.git_sha +
         " type=" + build.build_type + " compiler=" + build.compiler + "\n";
  out += "uptime_ms: " + FormatMs(MillisSince(started_at_)) + "\n";
  out += "store: tables=" +
         std::to_string(catalog.NumMaterializedTables()) +
         " tuples=" + std::to_string(catalog.TotalTuples()) +
         " cached_bytes=" + std::to_string(catalog.CachedBytes()) +
         " quarantined=" + std::to_string(catalog.quarantined_tables()) +
         " corruptions=" + std::to_string(catalog.corruptions_detected()) +
         "\n";
  uint64_t in_flight;
  size_t recent;
  {
    MutexLock lock(&queries_mu_);
    in_flight = in_flight_queries_.size();
    recent = recent_.size();
  }
  out += "queries: total=" + std::to_string(queries_total_->Value()) +
         " failed=" + std::to_string(queries_failed_->Value()) +
         " rejected=" + std::to_string(queries_rejected_->Value()) +
         " slow=" + std::to_string(slow_queries_->Value()) +
         " in_flight=" + std::to_string(in_flight) +
         " recent=" + std::to_string(recent) + "\n";
  const ConnectionCounts connections = CountConnections();
  if (running_) {
    out += "workers: total=" + std::to_string(num_workers_) +
           " busy=" + std::to_string(connections.busy_workers) +
           " queue_depth=" + std::to_string(connections.queued) +
           " queue_capacity=" + std::to_string(options_.queue_capacity) +
           "\n";
  } else {
    out += "workers: not started\n";
  }
  out += "connections: open=" + std::to_string(connections.open) +
         " idle=" + std::to_string(connections.idle) + "\n";
  TaskPool* task_pool = TaskPool::Shared();
  out += "task_pool: width=" +
         std::to_string(task_pool->ParallelismWidth()) +
         " queue_depth=" + std::to_string(task_pool->QueueDepth()) + "\n";
  HttpResponse response;
  response.content_type = "text/plain; charset=utf-8";
  response.body = out;
  return response;
}

HttpResponse SparqlEndpoint::Handle(const HttpRequest& request) {
  HttpResponse response;
  if (request.path == "/" && request.method == "GET") {
    response.content_type = "text/html; charset=utf-8";
    response.body =
        "<html><body><h1>S2RDF SPARQL endpoint</h1>"
        "<p>POST or GET /sparql with a <code>query</code> parameter "
        "(optional <code>timeout</code> ms, <code>limit</code> rows, "
        "<code>explain=plan|analyze</code>, <code>trace=1</code>, "
        "<code>optimizer=paper|cost</code>).</p>"
        "<p>Introspection: <a href=\"/metrics\">/metrics</a>, "
        "<a href=\"/debug/queries\">/debug/queries</a>, "
        "<a href=\"/statusz\">/statusz</a>.</p>"
        "<p>Tables: " +
        std::to_string(db_.catalog().NumMaterializedTables()) +
        ", tuples: " + std::to_string(db_.catalog().TotalTuples()) +
        "</p></body></html>";
    return response;
  }
  if (request.path == "/health" && request.method == "GET") {
    response.body = std::string("ok ") + GetBuildInfo().git_sha + "\n";
    return response;
  }
  if (request.path == "/metrics" && request.method == "GET") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = registry_.RenderPrometheus();
    return response;
  }
  if (request.path == "/debug/queries" && request.method == "GET") {
    return DebugQueriesResponse();
  }
  if (request.path == "/statusz" && request.method == "GET") {
    return StatuszResponse();
  }
  if (request.path == "/ingest") {
    if (request.method != "POST") {
      response.status_code = 405;
      response.body = "POST an N-Triples body to /ingest\n";
      return response;
    }
    return RunIngest(request);
  }
  if (request.path != "/sparql") {
    return ErrorResponse(NotFoundError("no such resource: " + request.path));
  }

  // Request parameters come from the URL query string (always) plus, for
  // form POSTs, the form body.
  std::map<std::string, std::string> params =
      ParseQueryString(request.query_string);
  std::string query_text = params["query"];
  if (request.method == "POST") {
    std::string content_type = request.Header("content-type");
    if (content_type.find("application/sparql-query") != std::string::npos) {
      query_text = request.body;
    } else if (content_type.find("application/x-www-form-urlencoded") !=
                   std::string::npos ||
               content_type.empty()) {
      auto form = ParseQueryString(request.body);
      for (auto& [key, value] : form) params[key] = std::move(value);
      query_text = params["query"];
    } else {
      response.status_code = 415;
      response.body = "unsupported content type: " + content_type + "\n";
      return response;
    }
  } else if (request.method != "GET") {
    response.status_code = 405;
    response.body = "use GET or POST\n";
    return response;
  }

  if (query_text.empty()) {
    return ErrorResponse(
        InvalidArgumentError("missing 'query' parameter"));
  }

  core::QueryRequest query_request;
  query_request.query = query_text;
  query_request.options.timeout_ms = options_.default_timeout_ms;
  bool present = false;
  uint64_t value = 0;
  if (!ParseParam(params, "timeout", &value, &present)) {
    return ErrorResponse(
        InvalidArgumentError("'timeout' must be a non-negative integer"));
  }
  if (present) query_request.options.timeout_ms = value;
  if (options_.max_timeout_ms > 0 &&
      (query_request.options.timeout_ms == 0 ||
       query_request.options.timeout_ms > options_.max_timeout_ms)) {
    query_request.options.timeout_ms = options_.max_timeout_ms;
  }
  if (!ParseParam(params, "limit", &value, &present)) {
    return ErrorResponse(
        InvalidArgumentError("'limit' must be a non-negative integer"));
  }
  if (present) query_request.options.max_result_rows = value;

  QueryRendering rendering = QueryRendering::kAnswer;
  auto explain_it = params.find("explain");
  if (explain_it != params.end()) {
    if (explain_it->second == "plan") {
      rendering = QueryRendering::kPlan;
    } else if (explain_it->second == "analyze") {
      rendering = QueryRendering::kProfile;
    } else {
      return ErrorResponse(
          InvalidArgumentError("'explain' must be 'plan' or 'analyze'"));
    }
  }
  auto trace_it = params.find("trace");
  if (trace_it != params.end()) {
    if (trace_it->second != "1" && trace_it->second != "0") {
      return ErrorResponse(InvalidArgumentError("'trace' must be 0 or 1"));
    }
    // An EXPLAIN rendering takes precedence over the trace.
    if (trace_it->second == "1" && rendering == QueryRendering::kAnswer) {
      rendering = QueryRendering::kTrace;
    }
  }
  auto optimizer_it = params.find("optimizer");
  if (optimizer_it != params.end()) {
    auto mode = core::ParseOptimizerMode(optimizer_it->second);
    if (!mode.ok()) return ErrorResponse(mode.status());
    query_request.options.optimizer.mode = *mode;
  }
  query_request.options.collect_profile =
      rendering == QueryRendering::kProfile ||
      rendering == QueryRendering::kTrace;
  query_request.options.explain_plan = rendering == QueryRendering::kPlan;

  return RunQuery(request, query_request, rendering);
}

HttpResponse SparqlEndpoint::RunIngest(const HttpRequest& request) {
  auto batch = core::MakeBatchFromNTriples(request.body);
  if (!batch.ok()) {
    ingest_failures_->Increment();
    return ErrorResponse(batch.status());
  }
  auto result = db_.Ingest(*batch);
  if (!result.ok()) {
    ingest_failures_->Increment();
    return ErrorResponse(result.status());
  }
  // A batch that adds nothing commits no generation.
  if (result->triples_added > 0) ingest_batches_->Increment();
  ingest_triples_->Increment(result->triples_added);
  char body[512];
  std::snprintf(
      body, sizeof(body),
      "{\"triples_in_batch\":%llu,\"triples_added\":%llu,"
      "\"generation\":%llu,\"vp_tables_updated\":%llu,"
      "\"extvp_tables_updated\":%llu,\"bytes_written\":%llu,"
      "\"tables_patched\":%llu,\"tables_written_whole\":%llu,"
      "\"millis\":%.3f}\n",
      static_cast<unsigned long long>(result->triples_in_batch),
      static_cast<unsigned long long>(result->triples_added),
      static_cast<unsigned long long>(result->generation),
      static_cast<unsigned long long>(result->vp_tables_updated),
      static_cast<unsigned long long>(result->extvp_tables_updated),
      static_cast<unsigned long long>(result->bytes_written),
      static_cast<unsigned long long>(result->tables_patched),
      static_cast<unsigned long long>(result->tables_written_whole),
      result->millis);
  HttpResponse response;
  response.content_type = "application/json; charset=utf-8";
  response.body = body;
  return response;
}

void SparqlEndpoint::LogSlowQuery(const QueryTicket& ticket, double total_ms,
                                  const std::string& query_text) {
  const std::string display = TruncateForDisplay(query_text);
  uint64_t suppressed = 0;
  // Keyed by the (truncated) query text: one hot pathological query
  // cannot flood the sink, distinct queries do not contend.
  if (!slow_query_limiter_.Allow(display, &suppressed)) {
    slow_queries_suppressed_->Increment();
    return;
  }
  if (options_.slow_query_log) {
    std::string line = "[s2rdf] slow query #" + std::to_string(ticket.id) +
                       " trace=" + ticket.trace_id + " (" + FormatMs(total_ms) +
                       " ms >= " + std::to_string(options_.slow_query_ms) +
                       " ms): " + display;
    if (suppressed > 0) {
      line += " suppressed=" + std::to_string(suppressed);
    }
    options_.slow_query_log(line);
    return;
  }
  LogEvent(LogLevel::kWarn, "slow_query",
           {{"trace_id", ticket.trace_id}, {"query_id", ticket.id},
            {"total_ms", total_ms},
            {"threshold_ms", options_.slow_query_ms},
            {"suppressed", suppressed},
            {"query", display}});
}

HttpResponse SparqlEndpoint::RunQuery(const HttpRequest& request,
                                      core::QueryRequest query_request,
                                      QueryRendering rendering) {
  queries_total_->Increment();
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  QueryTicket ticket = BeginQuery(query_request.query);
  query_request.options.trace_id = ticket.trace_id;
  auto start = MonotonicNow();
  auto result = db_.Execute(query_request);
  const double total_ms = MillisSince(start);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  latency_seconds_->Observe(total_ms / 1000.0);

  QueryRecord record;
  record.id = ticket.id;
  record.trace_id = ticket.trace_id;
  record.query = TruncateForDisplay(query_request.query);
  record.total_ms = total_ms;
  const bool slow =
      options_.slow_query_ms > 0 &&
      total_ms >= static_cast<double>(options_.slow_query_ms);
  record.slow = slow;

  if (!result.ok()) {
    // A failed query leaves no engine metrics behind, but it must not
    // vanish from the counters: reconciliation needs
    // queries_total == successes + queries_failed_total.
    queries_failed_->Increment();
    HttpResponse error = ErrorResponse(result.status());
    error.headers["X-S2RDF-Trace-Id"] = ticket.trace_id;
    record.http_status = error.status_code;
    record.error = result.status().ToString();
    record.response_bytes = error.body.size();
    FinishQuery(std::move(record));
    return error;
  }

  exec_input_->Increment(result->metrics.input_tuples);
  exec_intermediate_->Increment(result->metrics.intermediate_tuples);
  exec_comparisons_->Increment(result->metrics.join_comparisons);
  exec_shuffled_->Increment(result->metrics.shuffled_tuples);
  exec_output_->Increment(result->metrics.output_tuples);
  parse_seconds_->Observe(result->parse_ms / 1000.0);
  compile_seconds_->Observe(result->compile_ms / 1000.0);
  exec_seconds_->Observe(result->exec_ms / 1000.0);
  shuffle_bytes_->Observe(static_cast<double>(
      result->metrics.shuffled_tuples * kShuffleBytesPerTuple));
  rows_scanned_->Observe(static_cast<double>(result->metrics.input_tuples));
  peak_table_bytes_->Observe(
      static_cast<double>(result->metrics.peak_table_bytes));

  record.http_status = 200;
  record.rows = result->metrics.output_tuples;
  record.parse_ms = result->parse_ms;
  record.compile_ms = result->compile_ms;
  record.exec_ms = result->exec_ms;
  record.optimizer_mode = result->optimizer_mode;
  record.plan_fingerprint = result->plan_fingerprint;

  HttpResponse response;
  response.headers["X-S2RDF-Trace-Id"] = ticket.trace_id;
  const MonotonicTime format_start = MonotonicNow();
  RenderQueryResponse(*result, query_request.query, db_.graph().dictionary(),
                      NegotiateFormat(request.Header("accept")), rendering,
                      &response);
  record.format_ms = MillisSince(format_start);
  record.response_bytes = response.body.size();
  format_seconds_->Observe(record.format_ms / 1000.0);
  FinishQuery(std::move(record));

  if (slow) {
    slow_queries_->Increment();
    LogSlowQuery(ticket, total_ms, query_request.query);
  }
  return response;
}

StatusOr<int> SparqlEndpoint::Start(int port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return IoError("socket() failed");
  int reuse = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return IoError("bind() failed on port " + std::to_string(port));
  }
  if (listen(fd, 16) != 0) {
    close(fd);
    return IoError("listen() failed");
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  int bound_port = ntohs(addr.sin_port);

  const int epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  const int stop_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  epoll_event stop_event{};
  stop_event.events = EPOLLIN;  // Level-triggered: every worker sees it.
  stop_event.data.u64 = kStopToken;
  if (epoll_fd < 0 || stop_fd < 0 ||
      epoll_ctl(epoll_fd, EPOLL_CTL_ADD, stop_fd, &stop_event) != 0) {
    for (int open_fd : {fd, epoll_fd, stop_fd}) {
      if (open_fd >= 0) close(open_fd);
    }
    return IoError("epoll set-up failed");
  }
  listen_fd_ = fd;
  epoll_fd_ = epoll_fd;
  stop_fd_ = stop_fd;

  running_ = true;
  workers_.reserve(static_cast<size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  LogEvent(LogLevel::kInfo, "server_start",
           {{"port", bound_port},
            {"workers", num_workers_},
            {"queue_capacity", static_cast<uint64_t>(options_.queue_capacity)},
            {"build_sha", GetBuildInfo().git_sha}});
  return bound_port;
}

void SparqlEndpoint::AcceptLoop() {
  pollfd watched[2] = {{listen_fd_, POLLIN, 0}, {stop_fd_, POLLIN, 0}};
  MonotonicTime last_sweep = MonotonicNow();
  while (true) {
    const int ready = poll(watched, 2, kIdleSweepMs);
    if (ready > 0 && watched[1].revents != 0) return;
    if (ready > 0 && (watched[0].revents & POLLIN) != 0) {
      const int client = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (client >= 0) Admit(client);
    }
    if (MonotonicNow() - last_sweep >=
        std::chrono::milliseconds(kIdleSweepMs)) {
      CloseIdleConnections();
      last_sweep = MonotonicNow();
    }
  }
}

void SparqlEndpoint::Admit(int fd) {
  // An answer leaves as soon as it is written: on a connection that stays
  // open, Nagle would hold the tail of a multi-segment answer until the
  // client acknowledged the rest.
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A client that stops reading gets as long to take the next bytes of
  // an answer as an idle connection gets to send a request; then the
  // write times out and the worker closes the connection.
  const timeval send_timeout{
      .tv_sec = std::chrono::duration_cast<std::chrono::seconds>(kIdleTimeout)
                    .count(),
      .tv_usec = 0};
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof(send_timeout));
  int evicted = -1;
  bool admitted = false;
  {
    MutexLock lock(&conn_mu_);
    if (connections_.size() >= max_connections_) {
      auto victim = connections_.end();
      for (auto it = connections_.begin(); it != connections_.end(); ++it) {
        const Connection& conn = it->second;
        if (conn.serving || !conn.answered || conn.stream.buffered() > 0 ||
            UnreadBytes(conn.fd) > 0) {
          continue;
        }
        if (victim == connections_.end() ||
            conn.armed_at < victim->second.armed_at) {
          victim = it;
        }
      }
      if (victim != connections_.end()) {
        evicted = victim->second.fd;
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, evicted, nullptr);
        connections_.erase(victim);
      }
    }
    if (connections_.size() < max_connections_) {
      const uint64_t id = next_connection_id_++;
      Connection& conn = connections_[id];
      conn.fd = fd;
      conn.armed_at = MonotonicNow();
      conn.armed_spell = spells_ended_;
      epoll_event event{};
      event.events = EPOLLIN | EPOLLONESHOT;
      event.data.u64 = id;
      admitted = epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) == 0;
      if (!admitted) connections_.erase(id);
    }
  }
  if (evicted >= 0) {
    close(evicted);
    connections_idle_closed_->Increment();
  }
  if (!admitted) Reject(fd);
}

void SparqlEndpoint::Reject(int fd) {
  queries_rejected_->Increment();
  pollfd request{fd, POLLIN, 0};
  if (poll(&request, 1, kRejectWaitMs) > 0) {
    char buf[kReadChunkBytes];
    (void)recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
  }
  WriteResponse(fd, ErrorResponse(ResourceExhaustedError(
                        "server overloaded: every connection slot is busy")));
  close(fd);
}

void SparqlEndpoint::CloseIdleConnections() {
  std::vector<int> idle;
  {
    MutexLock lock(&conn_mu_);
    const MonotonicTime now = MonotonicNow();
    for (auto it = connections_.begin(); it != connections_.end();) {
      const Connection& conn = it->second;
      // A request that waits for a worker is not idle, however long it
      // waits; a head that stopped arriving is.
      if (conn.serving || now - conn.armed_at < kIdleTimeout ||
          UnreadBytes(conn.fd) > 0) {
        ++it;
        continue;
      }
      epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
      idle.push_back(conn.fd);
      it = connections_.erase(it);
    }
  }
  for (int fd : idle) close(fd);
  connections_idle_closed_->Increment(idle.size());
}

void SparqlEndpoint::WorkerLoop() {
  // Once Stop begins, a worker serves what is already waiting, without
  // blocking, and leaves when nothing is.
  bool draining = false;
  while (true) {
    epoll_event events[2];
    const bool was_draining = draining;
    const int ready =
        epoll_wait(epoll_fd_, events, draining ? 2 : 1, draining ? 0 : -1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) return;
    int served = 0;
    for (int i = 0; i < ready; ++i) {
      if (events[i].data.u64 == kStopToken) {
        draining = true;
      } else {
        ServeReady(events[i].data.u64);
        ++served;
      }
    }
    if (was_draining && served == 0) return;
  }
}

void SparqlEndpoint::ServeReady(uint64_t id) {
  Connection* conn = nullptr;
  double admission_wait_s = 0.0;
  {
    MutexLock lock(&conn_mu_);
    auto it = connections_.find(id);
    // Evicted or timed out after its wakeup fired.
    if (it == connections_.end()) return;
    conn = &it->second;
    conn->serving = true;
    const MonotonicTime now = MonotonicNow();
    if (spells_ended_ != conn->armed_spell) {
      admission_wait_s = std::chrono::duration<double>(
                             now - std::max(conn->armed_at, spell_start_))
                             .count();
    }
    if (++busy_workers_ == num_workers_) spell_start_ = now;
  }
  const bool keep_open = ServeConnection(conn, admission_wait_s);
  int closing = -1;
  {
    MutexLock lock(&conn_mu_);
    if (busy_workers_-- == num_workers_) ++spells_ended_;
    if (keep_open && !stopping_) {
      conn->serving = false;
      conn->armed_at = MonotonicNow();
      conn->armed_spell = spells_ended_;
      // Under the lock: once serving is false, only the lock keeps the
      // acceptor from closing the socket and reusing its number.
      epoll_event event{};
      event.events = EPOLLIN | EPOLLONESHOT;
      event.data.u64 = id;
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event) == 0) return;
    }
    closing = conn->fd;
    connections_.erase(id);
  }
  close(closing);
}

bool SparqlEndpoint::ServeConnection(Connection* conn,
                                     double admission_wait_s) {
  // Read what has arrived without blocking. A short read leaves the
  // socket empty for now, so it ends the reading without one more recv.
  bool peer_closed = false;
  char buf[kReadChunkBytes];
  while (conn->stream.buffered() <= HttpRequestStream::kMaxRequestBytes) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      conn->stream.Append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
    } else if (n == 0) {
      // The client will send no more: answer what it sent, then close.
      peer_closed = true;
      break;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      return false;  // Reset: no one is left to answer.
    }
  }
  while (true) {
    HttpRequest request;
    HttpResponse response;
    switch (conn->stream.Next(&request, &response)) {
      case HttpRequestStream::Frame::kIncomplete:
        return !peer_closed;
      case HttpRequestStream::Frame::kRefused:
        WriteResponse(conn->fd, response);
        return false;
      case HttpRequestStream::Frame::kRequest:
        break;
    }
    admission_wait_seconds_->Observe(admission_wait_s);
    // A pipelined request behind this one waits for it, not for a worker.
    admission_wait_s = 0.0;
    if (options_.worker_hook) options_.worker_hook();
    response = Handle(request);
    // Handle answers HEAD with a body, which a client that keeps the
    // connection would misread as the start of the next answer.
    response.keep_alive = request.KeepAlive() && request.method != "HEAD";
    conn->answered = true;
    if (!WriteResponse(conn->fd, response) || !response.keep_alive) {
      return false;
    }
  }
}

bool SparqlEndpoint::WriteResponse(int client, const HttpResponse& response) {
  // Head and body go out as two iovecs of one gathered send, so the body
  // is never copied into a wire string. MSG_NOSIGNAL: a client that hung
  // up gets EPIPE here instead of a SIGPIPE that kills the process.
  std::string head = response.Head();
  iovec parts[2] = {
      {head.data(), head.size()},
      {const_cast<char*>(response.body.data()), response.body.size()}};
  msghdr message{};
  message.msg_iov = parts;
  message.msg_iovlen = 2;
  size_t remaining = head.size() + response.body.size();
  while (remaining > 0) {
    const MonotonicTime call = MonotonicNow();
    ssize_t n = sendmsg(client, &message, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    // Nothing sent: the peer is gone, or SO_SNDTIMEO expired (EAGAIN).
    if (n <= 0) return false;
    auto sent = static_cast<size_t>(n);
    remaining -= sent;
    // A short count after blocking for about the send timeout is a
    // timeout too: the peer took part of the answer, then stopped
    // reading. (A signal cuts a call short early; that write goes on.)
    if (remaining > 0 &&
        MonotonicNow() - call >= std::chrono::milliseconds(kIdleTimeout) / 2) {
      return false;
    }
    while (message.msg_iovlen > 0 && sent >= message.msg_iov->iov_len) {
      sent -= message.msg_iov->iov_len;
      ++message.msg_iov;
      --message.msg_iovlen;
    }
    if (message.msg_iovlen > 0) {
      message.msg_iov->iov_base =
          static_cast<char*>(message.msg_iov->iov_base) + sent;
      message.msg_iov->iov_len -= sent;
    }
  }
  return true;
}

SparqlEndpoint::ConnectionCounts SparqlEndpoint::CountConnections() const {
  ConnectionCounts counts;
  MutexLock lock(&conn_mu_);
  counts.open = connections_.size();
  counts.busy_workers = static_cast<size_t>(busy_workers_);
  for (const auto& [id, conn] : connections_) {
    if (conn.serving) continue;
    if (UnreadBytes(conn.fd) > 0) {
      ++counts.queued;
    } else if (conn.stream.buffered() == 0) {
      ++counts.idle;
    }
  }
  return counts;
}

EndpointStats SparqlEndpoint::Stats() const {
  EndpointStats stats;
  stats.queries_total = queries_total_->Value();
  stats.queries_failed_total = queries_failed_->Value();
  stats.queries_rejected_total = queries_rejected_->Value();
  stats.in_flight = in_flight_.load(std::memory_order_relaxed);
  stats.queue_depth = CountConnections().queued;
  stats.slow_queries_total = slow_queries_->Value();
  stats.cumulative.input_tuples = exec_input_->Value();
  stats.cumulative.intermediate_tuples = exec_intermediate_->Value();
  stats.cumulative.join_comparisons = exec_comparisons_->Value();
  stats.cumulative.shuffled_tuples = exec_shuffled_->Value();
  stats.cumulative.output_tuples = exec_output_->Value();
  return stats;
}

void SparqlEndpoint::Stop() {
  if (!running_.exchange(false)) return;
  {
    MutexLock lock(&conn_mu_);
    stopping_ = true;
  }
  // Wakes the acceptor and every worker; the eventfd stays readable.
  const uint64_t one = 1;
  (void)!write(stop_fd_, &one, sizeof(one));
  if (accept_thread_.joinable()) accept_thread_.join();
  close(listen_fd_);
  listen_fd_ = -1;
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // What is left is idle, or sent its request after the workers drained.
  {
    MutexLock lock(&conn_mu_);
    for (const auto& [id, conn] : connections_) close(conn.fd);
    connections_.clear();
  }
  close(epoll_fd_);
  close(stop_fd_);
  epoll_fd_ = -1;
  stop_fd_ = -1;
  LogEvent(LogLevel::kInfo, "server_stop",
           {{"queries_total", queries_total_->Value()},
            {"queries_failed", queries_failed_->Value()},
            {"queries_rejected", queries_rejected_->Value()}});
}

SparqlEndpoint::~SparqlEndpoint() { Stop(); }

}  // namespace s2rdf::server
