#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "arith.h"
#include "core/s2rdf.h"
#include "http_client.h"
#include "report.h"
#include "server/sparql_endpoint.h"
#include "trace.h"

// The four workloads and the pieces they share: the store + endpoint
// set-up, the answer oracle, the full-answer sample check and the traced
// per-request replay that yields the per-layer metrics.

namespace perfbench {

RunOutput RunHttpShort(const RunConfig& config);
RunOutput RunHttpBulk(const RunConfig& config);
RunOutput RunAnalytic(const RunConfig& config);
RunOutput RunDurable(const RunConfig& config);

// Scale factor of every workload's dataset (73 563 triples).
inline constexpr double kScaleFactor = 1.0;

// An untraced run sets up this many times, and each set-up's store and
// endpoint serve one segment of the timed work; every end-to-end figure
// is the median over the segments, so neither one instance's latency
// band nor one slow moment of the host decides it.
inline constexpr int kSegments = 5;

// A store served by an endpoint with default EndpointOptions.
struct Served {
  std::unique_ptr<s2rdf::core::S2Rdf> db;
  std::unique_ptr<s2rdf::server::SparqlEndpoint> endpoint;
  int port = 0;
  void Stop();
  ~Served() { Stop(); }
};

// Starts an endpoint over `db`; fails the run on error.
bool Serve(std::unique_ptr<s2rdf::core::S2Rdf> db, Served* served,
           RunOutput* out);

// Reference answers: the body the endpoint should send for each query
// (S2Rdf::Execute + sparql::ResultsToJson in process).
struct Oracle {
  std::vector<Expectation> expect;
  std::vector<BagDigest> digests;
  std::vector<uint64_t> rows;
};
Oracle BuildOracle(s2rdf::core::S2Rdf* db,
                   const std::vector<std::string>& queries, RunOutput* out);

// Sends each query of `indices` once over HTTP, outside any timed
// window, and checks status, trace id and the exact solution bag.
void CheckAnswers(int port, const std::vector<std::string>& wires,
                  const Oracle& oracle, const std::vector<uint32_t>& indices,
                  const std::string& what, RunOutput* out);

// `count` indices drawn uniformly from [0, n) by `seed`.
std::vector<uint32_t> SeededSequence(uint64_t seed, size_t n, size_t count);

// Per-request layer accounting of one traced pass.
struct LayerTotals {
  uint64_t requests = 0;
  double handle_ms = 0, serialize_ms = 0;
  double parse_ms = 0, compile_ms = 0, render_ms = 0, exec_ms = 0;
  double format_ms = 0;
  uint64_t response_bytes = 0, result_rows = 0;
  std::map<std::string, double> op_self_ms;  // Keyed by operator kind.
  uint64_t scans = 0;
  s2rdf::engine::ExecMetrics exec;  // Summed; peak is the max.
  std::vector<double> round_trips;  // Per request, for the overhead line.
  // Per request: round trip minus Handle, and Handle minus the replayed
  // stages. Each is a difference of two runs of the query, so for a
  // 100 ms query it carries that query's run-to-run noise; the metrics
  // are the medians, which sit on the many small requests.
  std::vector<double> transport_ms, handle_other_ms;
};

// The traced replay: for each query, the HTTP round trip, then in
// process ParseHttpRequest -> SparqlEndpoint::Handle ->
// HttpResponse::Serialize, sparql::ParseQuery, QueryCompiler::Compile,
// plan rendering, S2Rdf::Execute with collect_profile, and
// sparql::ResultsToJson, each under its own span.
void TracedQueryPass(Served* served, const std::vector<std::string>& queries,
                     const std::vector<std::string>& wires,
                     const std::vector<uint32_t>& sequence,
                     SpanRecorder* recorder, uint64_t first_request,
                     LayerTotals* totals, RunOutput* out);

// Untraced sequential round trips of `sequence` (the tracing-overhead
// baseline); returns the per-request latencies.
std::vector<double> PlainRoundTrips(int port,
                                    const std::vector<std::string>& wires,
                                    const std::vector<uint32_t>& sequence);

// Every per-layer metric, in BENCHMARK.json order, from what the traced
// run measured (layers a workload does not exercise read 0).
struct LayerInputs {
  LayerTotals query;
  double admission_wait_ms = 0;
  double vp_build_ms = 0, extvp_build_ms = 0;
  uint64_t extvp_tables = 0;
  double ingest_self_ms = 0;  // Mean per batch.
  double encode_ms = 0, write_ms = 0, fsync_ms = 0;
  uint64_t fsyncs = 0, files_written = 0, bytes_written = 0;
  double ingest_write_amplification = 0;
  double manifest_ms = 0, recover_ms = 0, read_ms = 0, decode_ms = 0;
  uint64_t reads = 0, bytes_read = 0;
  double cache_miss_ratio = 0;
  double ntriples_parse_ms = 0, dictionary_load_ms = 0;
  uint64_t pool_tasks = 0;
  double pool_queue_wait_ms = 0;
};
void AddLayerMetrics(const LayerInputs& in, RunOutput* out);

// The traced set-up every workload shares: N-Triples parse, the public
// layout builders on a catalog (over `env` in `dir` when given), and
// storage::SerializeTable over every table they built.
void TracedBuild(const std::string& ntriples, s2rdf::Env* env,
                 const std::string& dir, SpanRecorder* recorder,
                 LayerInputs* in, RunOutput* out);

// Mean and count of a histogram registered under `name`, seconds.
struct HistSummary {
  uint64_t count = 0;
  double sum = 0;
};
HistSummary ReadHistogram(s2rdf::MetricsRegistry* registry,
                          const std::string& name);

// Milliseconds between two time points.
double Ms(Clock::time_point a, Clock::time_point b);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
