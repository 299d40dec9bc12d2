#ifndef S2RDF_CORE_S2RDF_H_
#define S2RDF_CORE_S2RDF_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/compiler.h"
#include "core/extvp_bitmap.h"
#include "core/layouts.h"
#include "engine/exec_context.h"
#include "engine/plan.h"
#include "engine/profile.h"
#include "rdf/graph.h"
#include "rdf/table.h"
#include "storage/catalog.h"
#include "storage/ingest.h"

// The S2RDF system facade: loads an RDF graph, builds the relational
// layouts (triples table, VP, ExtVP with an optional SF threshold), and
// executes SPARQL queries over a chosen layout, reporting both results
// and the execution metrics the paper argues about (input size, join
// comparisons, shuffle volume).
//
// Execute is thread-safe: one S2Rdf instance serves many concurrent
// queries (each with its own ExecContext and metrics). The catalog and
// dictionary are internally locked, lazy-ExtVP reductions are built
// exactly once even when several queries race for the same pair, and
// LRU eviction never frees a table an in-flight query still reads.
//
// Example:
//   rdf::Graph g;
//   rdf::ParseNTriples(data, &g);
//   S2RDF_ASSIGN_OR_RETURN(auto db, core::S2Rdf::Create(std::move(g), {}));
//   S2RDF_ASSIGN_OR_RETURN(
//       auto result, db->Execute({.query = "SELECT * WHERE { ?s ?p ?o }",
//                                 .options = {.timeout_ms = 5000}}));
//   std::printf("%s", result.plan->ToSql().c_str());

namespace s2rdf::core {

struct S2RdfOptions {
  // Storage directory; empty keeps all tables in memory.
  std::string storage_dir;
  // File-I/O environment for the catalog and persisted artifacts
  // (Env::Default() when null; fault-injection tests substitute their
  // own). Must outlive the S2Rdf instance.
  Env* env = nullptr;
  // Layouts to build beyond the triples table (which queries with
  // unbound predicates and ingest need) and VP (the base layout).
  bool build_extvp = true;
  // "Pay as you go" mode (Sec. 7's production suggestion): skip the
  // ExtVP precomputation entirely; each reduction a query needs is
  // computed on first use and committed for later queries, a reopened
  // store's included. Mutually exclusive with build_extvp.
  bool lazy_extvp = false;
  // Also build the bit-vector ExtVP representation (future work of
  // Sec. 8), enabling Layout::kExtVpBitmap with correlation
  // intersection.
  bool build_extvp_bitmaps = false;
  // ExtVP build options, the selectivity-factor threshold (Sec. 5.3)
  // among them; the lazy mode and ingest apply the same threshold.
  ExtVpOptions extvp;
  // Simulated cluster width for the shuffle meter.
  int num_partitions = 9;
  // In-memory table-cache budget for disk-backed stores (0 = unlimited);
  // LRU tables are evicted between queries and reload from disk.
  uint64_t memory_budget_bytes = 0;
  // When non-empty, every profiled query's Chrome trace_event JSON is
  // also written to "<trace_dir>/trace-NNNNNN.json" (sequence-numbered,
  // via the configured Env). Load the files in chrome://tracing or
  // Perfetto.
  std::string trace_dir;
};

// Per-query execution controls, carried by a QueryRequest. Fields of
// class type carry a `{}` initializer so designated initializers that
// omit them (`{.layout = Layout::kVp}`) stay free of
// -Wmissing-field-initializers.
struct QueryOptions {
  // Wall-clock budget covering parse + compile + execute, milliseconds;
  // 0 = unlimited. On expiry Execute returns kDeadlineExceeded (checked
  // at operator boundaries and inside scan/join loops).
  uint64_t timeout_ms = 0;
  // Truncate the solution table to at most this many rows (0 =
  // unlimited). QueryResult::truncated reports whether rows were
  // dropped. Does not apply to CONSTRUCT/DESCRIBE graphs.
  uint64_t max_result_rows = 0;
  // Layout to execute against.
  Layout layout = Layout::kExtVp;
  // Ablation switches of the compiler (bench_ablations, DESIGN.md §5):
  // the statistics-only empty-result shortcut (SF = 0 tables), and
  // FILTER pushdown into the BGP join pipeline (Sec. 6).
  bool use_statistics_shortcut = true;
  bool push_filters = true;
  // EXPLAIN ANALYZE: record per-operator rows and timings in
  // QueryResult::profile_data.
  bool collect_profile = false;
  // EXPLAIN: parse and compile only; QueryResult carries the plan,
  // optimizer mode/estimates and fingerprint, but no rows. Not
  // supported for CONSTRUCT/DESCRIBE.
  bool explain_plan = false;
  // Optimizer selection and knobs (paper heuristic vs cost-based).
  OptimizerOptions optimizer{};
  // Optional external cancellation: while *cancel is true the query
  // returns kCancelled at the next operator boundary. The flag must
  // outlive the Execute call.
  const std::atomic<bool>* cancel = nullptr;
  // Request-scoped trace id, assigned at admission (the HTTP endpoint
  // generates one per request) or by an embedding caller. Carried into
  // the ExecContext, the profile/Chrome trace, and QueryResult so every
  // artifact of one request shares one id. Empty = untraced.
  std::string trace_id{};
};

// The query-submission unit: SPARQL text plus its options.
struct QueryRequest {
  std::string query{};
  QueryOptions options{};
};

struct QueryResult {
  rdf::Table table;
  // For ASK queries: whether any solution exists (`table` then holds at
  // most one undecoded witness row).
  bool is_ask = false;
  bool ask_result = false;
  // For CONSTRUCT/DESCRIBE: the resulting graph in N-Triples syntax
  // (`table` is then empty).
  bool is_graph = false;
  std::string graph_ntriples;
  // True when QueryOptions::max_result_rows dropped trailing rows.
  bool truncated = false;
  engine::ExecMetrics metrics;
  // Wall-clock time of parse + compile + execute, milliseconds.
  double millis = 0.0;
  // Stage split of `millis`: parsing, compilation (including lazy-ExtVP
  // materialization), and execution (for graph forms including the
  // construction of the graph). Always populated; exec_ms is 0 under
  // EXPLAIN.
  double parse_ms = 0.0;
  double compile_ms = 0.0;
  double exec_ms = 0.0;
  // The compiled plan tree; null only for a DESCRIBE without WHERE.
  // Readers render it where they need text: plan->ToSql() is the
  // Spark-SQL-style statement the paper's compiler emits, and
  // plan->ToString() the operator tree with the optimizer's estimates.
  std::shared_ptr<const engine::PlanNode> plan;
  // Which Optimize stage compiled the plan ("paper" or "cost"); empty
  // when there is no plan.
  std::string optimizer_mode;
  // engine::PlanFingerprint of `plan` — tells plan shapes apart cheaply
  // in /debug/queries and logs. 0 when there is no plan.
  uint64_t plan_fingerprint = 0;
  // Echo of QueryOptions::trace_id.
  std::string trace_id;
  // The structured profile (operator tree with scan provenance and
  // metric deltas, parallel task spans, stage split); empty unless
  // profiling was requested. Render it with engine::RenderProfileText
  // (EXPLAIN ANALYZE) or engine::RenderTraceJson (Chrome trace).
  engine::QueryProfile profile_data;
};

struct LoadStats {
  double vp_seconds = 0.0;
  double extvp_seconds = 0.0;
  ExtVpBuildStats extvp_stats;
};

// The table provider engine::ExecutePlan reads `catalog` through, one
// per query: it resolves every table as of `state`. It loads lazily,
// returns nullptr for unknown tables, and *pins* every table it
// resolves for its own lifetime, so concurrent eviction cannot free a
// table mid-scan. A table that fails to load mid-query (checksum,
// missing file, quarantine) degrades to the scan's fallback table (an
// ExtVP reduction's base VP table: VP ⊇ ExtVP keeps the answer intact),
// counted once per provider in Catalog::queries_degraded.
engine::TableProvider CatalogProvider(
    storage::Catalog* catalog,
    std::shared_ptr<const storage::CatalogState> state);

class S2Rdf {
 public:
  // Builds all configured layouts for `graph`.
  static StatusOr<std::unique_ptr<S2Rdf>> Create(rdf::Graph graph,
                                                 const S2RdfOptions& options);

  // Reopens a store previously persisted by Create with a non-empty
  // `storage_dir`: runs the startup recovery pass (manifest chain,
  // table verification, quarantine, temp-file cleanup — see
  // recovery_report(); kFailedPrecondition, touching no file, for a
  // manifest this build cannot read — Catalog::LoadManifest), rebuilds
  // the dictionary from the recovered
  // generation's dictionary blobs (kInvalidArgument naming a blob that
  // cannot be read back intact), then serves queries with tables paged
  // in lazily from disk. The bit-vector ExtVP store is not
  // persisted, so Layout::kExtVpBitmap is unavailable on a reopened
  // store.
  static StatusOr<std::unique_ptr<S2Rdf>> Open(const std::string& storage_dir,
                                               int num_partitions = 9,
                                               Env* env = nullptr);

  // The one query entry point: parses, compiles and executes
  // request.query under request.options, for every query form, against
  // one catalog state taken after the lazy-ExtVP pre-pass. Thread-safe.
  StatusOr<QueryResult> Execute(const QueryRequest& request);

  // Applies one batch of new triples: appends to the triples table and
  // VP tables and delta-maintains dependent ExtVP reductions and SF
  // statistics (core/ingest.h). The whole batch commits as one atomic
  // manifest flip; in-flight queries keep reading the prior generation
  // through their catalog state. Thread-safe; concurrent Ingest calls are
  // serialized. Not reflected: the in-memory bitmap ExtVP store and
  // property tables (rebuild for those layouts).
  StatusOr<storage::IngestResult> Ingest(const storage::IngestBatch& batch);

  // Decodes a result table's ids back to canonical term strings.
  std::vector<std::vector<std::string>> DecodeRows(
      const rdf::Table& table) const;

  const rdf::Graph& graph() const { return graph_; }
  storage::Catalog& catalog() { return catalog_; }
  const storage::Catalog& catalog() const { return catalog_; }
  const LoadStats& load_stats() const { return load_stats_; }
  // Null unless options.build_extvp_bitmaps was set.
  const ExtVpBitmapStore* bitmap_store() const {
    return bitmap_store_.get();
  }
  // Number of (correlation, p1, p2) pairs computed so far by the lazy
  // "pay as you go" mode.
  uint64_t lazy_pairs_computed() const {
    return lazy_pairs_computed_.load(std::memory_order_relaxed);
  }
  // What the startup recovery pass found (all zero for Create-built
  // instances, which never recover).
  const storage::RecoveryReport& recovery_report() const {
    return recovery_report_;
  }

 private:
  S2Rdf(rdf::Graph graph, std::string storage_dir, int num_partitions,
        Env* env = nullptr)
      : graph_(std::move(graph)),
        catalog_(std::move(storage_dir), env),
        num_partitions_(num_partitions) {}

  // The lazy mode pre-pass: the catalog state the query then reads, in
  // which every ExtVP reduction the correlations of `where` could use
  // (OPTIONAL, UNION and subqueries included) has an entry. `state` is
  // returned as it is when it has them all (no lock taken); otherwise
  // the missing pairs are computed once, under ingest_mu_, from one
  // state, and committed (core::CommitExtVpPairs).
  StatusOr<std::shared_ptr<const storage::CatalogState>> LazyExtVpState(
      const sparql::GraphPattern& where,
      std::shared_ptr<const storage::CatalogState> state);

  // The CONSTRUCT/DESCRIBE tail of Execute: the N-Triples graph built
  // from the WHERE clause's solutions (empty for a DESCRIBE without
  // WHERE); DESCRIBE reads the triples table as of `state`.
  StatusOr<std::string> BuildGraph(const sparql::Query& query,
                                   const rdf::Table& solutions,
                                   const storage::CatalogState& state,
                                   engine::ExecContext* ctx);

  // Writes the query's Chrome trace to S2RdfOptions::trace_dir (no-op
  // when unset).
  Status MaybeDumpTrace(const engine::QueryProfile& profile,
                        std::string_view query_text);

  // All fields below are either set once during Create/Open and then
  // read-only (graph topology, thresholds, flags), internally
  // synchronized (catalog, dictionary), or guarded here (commit
  // bookkeeping). Per-query state lives in local ExecContexts.
  rdf::Graph graph_;
  storage::Catalog catalog_;
  int num_partitions_;
  bool lazy_extvp_ = false;
  double sf_threshold_ = 1.0;
  // Trace-file dump (S2RdfOptions::trace_dir); the sequence number keys
  // the filenames without consulting a wall clock.
  std::string trace_dir_;
  Env* trace_env_ = nullptr;
  std::atomic<uint64_t> trace_seq_{0};
  std::atomic<uint64_t> lazy_pairs_computed_{0};
  LoadStats load_stats_;
  storage::RecoveryReport recovery_report_;
  std::unique_ptr<ExtVpBitmapStore> bitmap_store_;

  // Serializes Ingest calls and lazy ExtVP builds, i.e. every commit
  // after Create (queries otherwise run unlocked — they read the prior
  // generation's state). A lazy build checks again under it, so each
  // pair is computed once however many queries race for it.
  Mutex ingest_mu_;
  // Terms with ids below this lie in a committed dictionary blob; the
  // next commit that mints terms stores the rest.
  rdf::TermId dictionary_committed_ S2RDF_GUARDED_BY(ingest_mu_) = 0;
};

}  // namespace s2rdf::core

#endif  // S2RDF_CORE_S2RDF_H_
