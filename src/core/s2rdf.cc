#include "core/s2rdf.h"

#include <chrono>
#include <cstdio>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/log.h"
#include "common/mutex.h"
#include "core/ingest.h"
#include "core/table_selection.h"
#include "engine/operators.h"
#include "sparql/parser.h"

namespace s2rdf::core {

namespace {

// Rebuilds the dictionary from the catalog generation's dictionary
// blobs, in id order. A blob that cannot be read back intact fails with
// kInvalidArgument naming it (a transient kIoError passes through):
// serving without its terms would decode wrong strings, and the next
// ingest would hand their ids out again.
Status LoadDictionary(const storage::Catalog& catalog, rdf::Dictionary* dict) {
  const std::vector<storage::BlobLocation> blobs =
      catalog.State()->dictionary_blobs;
  if (blobs.empty()) {
    return InvalidArgumentError("no dictionary blob in the manifest of " +
                                catalog.dir());
  }
  for (size_t i = 0; i < blobs.size(); ++i) {
    const storage::BlobLocation& at = blobs[i];
    std::string blob;
    Status status = catalog.ReadBlob(at, &blob);
    if (status.code() == StatusCode::kIoError) return status;
    if (status.ok()) status = dict->Append(blob);
    if (!status.ok()) {
      return InvalidArgumentError(
          "dictionary blob " + std::to_string(i + 1) + " of " +
          std::to_string(blobs.size()) + " (" +
          catalog.SegmentPath(at.segment) + " at " +
          std::to_string(at.offset) + "): " + status.message());
    }
  }
  return Status::Ok();
}

// Adds to `missing` every ExtVP reduction the correlations of `pattern`
// (OPTIONAL, UNION and subqueries included) could use that `state` has
// no entry for.
void CollectMissingPairs(const sparql::GraphPattern& pattern,
                         const rdf::Dictionary& dict,
                         const storage::CatalogState& state,
                         std::set<ExtVpPair>* missing) {
  const std::vector<sparql::TriplePattern>& bgp = pattern.triples;
  const std::vector<PatternIds> ids = ResolveBgp(bgp, dict, state);
  for (size_t i = 0; i < bgp.size(); ++i) {
    if (!ids[i].predicate.has_value()) continue;
    const rdf::TermId p1 = *ids[i].predicate;
    for (size_t j = 0; j < bgp.size(); ++j) {
      if (i == j || !ids[j].predicate.has_value()) continue;
      const rdf::TermId p2 = *ids[j].predicate;
      for (const CorrelationCase& c : CorrelationsTo(bgp[i], bgp[j])) {
        if (!c.applies) continue;
        if (c.corr == Correlation::kSS && p1 == p2) continue;
        if (state.Find(ExtVpTableName(c.corr, p1, p2)) == nullptr) {
          missing->insert({c.corr, p1, p2});
        }
      }
    }
  }
  for (const sparql::GraphPattern& opt : pattern.optionals) {
    CollectMissingPairs(opt, dict, state, missing);
  }
  for (const auto& chain : pattern.unions) {
    for (const sparql::GraphPattern& alt : chain) {
      CollectMissingPairs(alt, dict, state, missing);
    }
  }
  for (const auto& sub : pattern.subqueries) {
    CollectMissingPairs(sub->where, dict, state, missing);
  }
}

}  // namespace

engine::TableProvider CatalogProvider(
    storage::Catalog* catalog,
    std::shared_ptr<const storage::CatalogState> state) {
  // The pin map keeps every resolved table alive (and memoizes the
  // lookup) for as long as the provider itself lives — one query.
  auto pins = std::make_shared<
      std::unordered_map<std::string, std::shared_ptr<const rdf::Table>>>();
  // One degradation event per query, however many scans substitute.
  auto degraded = std::make_shared<std::atomic<bool>>(false);
  return [catalog, state = std::move(state), pins, degraded](
             const std::string& name,
             const std::string& fallback) -> const rdf::Table* {
    auto pinned = pins->find(name);
    if (pinned != pins->end()) return pinned->second.get();
    StatusOr<std::shared_ptr<const rdf::Table>> table =
        catalog->GetTable(*state, name);
    if (!table.ok()) {
      if (fallback.empty()) return nullptr;
      table = catalog->GetTable(*state, fallback);
      if (!table.ok()) return nullptr;
      if (!degraded->exchange(true)) catalog->NoteDegradedQuery();
    }
    const rdf::Table* ptr = table->get();
    pins->emplace(name, std::move(*table));
    return ptr;
  };
}

StatusOr<std::unique_ptr<S2Rdf>> S2Rdf::Create(rdf::Graph graph,
                                               const S2RdfOptions& options) {
  auto db = std::unique_ptr<S2Rdf>(
      new S2Rdf(std::move(graph), options.storage_dir,
                options.num_partitions, options.env));
  db->trace_dir_ = options.trace_dir;
  db->trace_env_ = options.env;

  auto start = MonotonicNow();
  S2RDF_RETURN_IF_ERROR(BuildTriplesTable(db->graph_, &db->catalog_));
  S2RDF_RETURN_IF_ERROR(BuildVpLayout(db->graph_, &db->catalog_));
  db->load_stats_.vp_seconds = SecondsSince(start);

  db->sf_threshold_ = options.extvp.sf_threshold;
  if (options.lazy_extvp) {
    // "Pay as you go": no precomputation; only register the ExtVP
    // marker so Algorithm 1 consults ExtVP statistics.
    db->lazy_extvp_ = true;
    db->catalog_.PutStatsOnly(kExtVpMarker, 1, 1.0);
  } else if (options.build_extvp) {
    S2RDF_ASSIGN_OR_RETURN(
        db->load_stats_.extvp_stats,
        BuildExtVpLayout(db->graph_, options.extvp, &db->catalog_));
    db->load_stats_.extvp_seconds =
        db->load_stats_.extvp_stats.build_seconds;
  }
  // Persist the build parameters ingest needs to reproduce the eager
  // builder's materialization decisions on a reopened store. The SF
  // threshold rides in the entry's selectivity field.
  db->catalog_.PutStatsOnly("meta_sf_threshold", 1,
                            options.extvp.sf_threshold);
  if (options.lazy_extvp) {
    db->catalog_.PutStatsOnly("meta_lazy_extvp", 1, 1.0);
  }
  if (!options.storage_dir.empty()) {
    // One commit makes the whole build durable: every staged table and
    // the whole dictionary, in generation 1's segment.
    const rdf::Dictionary& dict = db->graph_.dictionary();
    const auto terms = static_cast<rdf::TermId>(dict.size());
    storage::CommitOptions commit;
    commit.dictionary_blob = dict.Serialize(0, terms);
    S2RDF_RETURN_IF_ERROR(db->catalog_.CommitBatch({}, commit));
    MutexLock lock(&db->ingest_mu_);
    db->dictionary_committed_ = terms;
  }
  db->catalog_.SetMemoryBudget(options.memory_budget_bytes);
  db->catalog_.EvictToBudget();
  // Publish the built catalog's state now, so the first query does not
  // pay its copy (Open's meta_lazy_extvp read does the same).
  db->catalog_.State();
  return db;
}

StatusOr<std::unique_ptr<S2Rdf>> S2Rdf::Open(const std::string& storage_dir,
                                             int num_partitions,
                                             Env* env) {
  if (storage_dir.empty()) {
    return InvalidArgumentError("Open requires a storage directory");
  }
  // The reopened instance carries the dictionary but no triple list;
  // queries execute against the persisted tables.
  auto db = std::unique_ptr<S2Rdf>(new S2Rdf(
      rdf::Graph(), storage_dir, num_partitions, env));
  // Startup recovery: verify the manifest chain and every table's
  // checksums, quarantine corruption, sweep crash debris. The dictionary
  // is then the adopted generation's dictionary blobs.
  S2RDF_ASSIGN_OR_RETURN(db->recovery_report_, db->catalog_.Recover());
  rdf::Dictionary& dict = db->graph_.dictionary();
  S2RDF_RETURN_IF_ERROR(LoadDictionary(db->catalog_, &dict));
  {
    MutexLock lock(&db->ingest_mu_);
    db->dictionary_committed_ = static_cast<rdf::TermId>(dict.size());
  }
  if (std::optional<storage::TableStats> meta =
          db->catalog_.GetStats("meta_sf_threshold")) {
    db->sf_threshold_ = meta->selectivity;
  }
  db->lazy_extvp_ =
      db->catalog_.State()->Find("meta_lazy_extvp") != nullptr;
  return db;
}

StatusOr<storage::IngestResult> S2Rdf::Ingest(
    const storage::IngestBatch& batch) {
  MutexLock lock(&ingest_mu_);
  IngestConfig config;
  config.sf_threshold = sf_threshold_;
  config.lazy_extvp = lazy_extvp_;
  StatusOr<storage::IngestResult> result =
      ApplyIngestBatch(batch, config, &graph_.dictionary(),
                       &dictionary_committed_, &catalog_);
  if (result.ok()) {
    LogEvent(LogLevel::kInfo, "ingest_commit",
             {{"triples_in_batch", result->triples_in_batch},
              {"triples_added", result->triples_added},
              {"generation", result->generation},
              {"vp_tables_updated", result->vp_tables_updated},
              {"extvp_tables_updated", result->extvp_tables_updated},
              {"millis", result->millis},
              {"commit_millis", result->commit_millis},
              {"bytes_written", result->bytes_written},
              {"tables_patched", result->tables_patched},
              {"tables_written_whole", result->tables_written_whole}});
  } else {
    LogEvent(LogLevel::kError, "ingest_failed",
             {{"status", result.status().ToString()}});
  }
  return result;
}

StatusOr<QueryResult> S2Rdf::Execute(const QueryRequest& request) {
  const QueryOptions& options = request.options;
  const MonotonicTime start = MonotonicNow();
  engine::ExecContext ctx;
  ctx.num_partitions = num_partitions_;
  ctx.collect_profile = options.collect_profile;
  ctx.profile_origin = start;
  ctx.cancel_flag = options.cancel;
  ctx.trace_id = options.trace_id;
  // The deadline covers the whole request (parse + compile + execute).
  if (options.timeout_ms > 0) {
    ctx.has_deadline = true;
    ctx.deadline = start + std::chrono::milliseconds(options.timeout_ms);
  }
  engine::TaskSpanSink task_spans;
  if (ctx.collect_profile) ctx.task_spans = &task_spans;

  S2RDF_ASSIGN_OR_RETURN(sparql::Query query,
                         sparql::ParseQuery(request.query));
  const double parse_ms = MillisSince(start);
  if (ctx.CheckInterrupt()) return ctx.interrupt_status;
  const bool is_graph = query.form == sparql::QueryForm::kConstruct ||
                        query.form == sparql::QueryForm::kDescribe;
  if (is_graph && options.explain_plan) {
    return InvalidArgumentError(
        "explain=plan is not supported for CONSTRUCT/DESCRIBE queries");
  }
  // The one catalog state the query reads, from compile to the last
  // scan: a commit landing meanwhile changes nothing it sees.
  std::shared_ptr<const storage::CatalogState> state = catalog_.State();
  if (lazy_extvp_ && options.layout == Layout::kExtVp) {
    S2RDF_ASSIGN_OR_RETURN(state,
                           LazyExtVpState(query.where, std::move(state)));
    if (ctx.CheckInterrupt()) return ctx.interrupt_status;
  }
  std::shared_ptr<const ExtVpBitmapStore> bitmaps;
  if (options.layout == Layout::kExtVpBitmap) {
    S2RDF_ASSIGN_OR_RETURN(bitmaps, BitmapStoreFor(state));
    if (ctx.CheckInterrupt()) return ctx.interrupt_status;
  }
  const CompilerOptions compiler_options{
      .layout = options.layout,
      .use_statistics_shortcut = options.use_statistics_shortcut,
      .push_filters = options.push_filters,
      .bitmap_store = bitmaps.get(),
      .optimizer = options.optimizer};

  QueryResult result;
  // A DESCRIBE of constant targets has no WHERE clause to compile.
  const sparql::GraphPattern& where = query.where;
  if (query.form != sparql::QueryForm::kDescribe || !where.triples.empty() ||
      !where.unions.empty() || !where.subqueries.empty() ||
      !where.values.empty()) {
    QueryCompiler compiler(state, &graph_.dictionary(), compiler_options);
    S2RDF_ASSIGN_OR_RETURN(result.plan, compiler.Compile(query));
    result.optimizer_mode = compiler.optimizer().name();
  }
  const double compile_ms = MillisSince(start) - parse_ms;
  if (ctx.CheckInterrupt()) return ctx.interrupt_status;

  // EXPLAIN stops after the compile stage: the plan with its estimates
  // is the result.
  double exec_ms = 0.0;
  if (!options.explain_plan) {
    // The provider pins every table it resolves until it is destroyed,
    // so concurrent eviction cannot free a table mid-scan.
    const MonotonicTime exec_start = MonotonicNow();
    rdf::Table solutions;
    if (result.plan != nullptr) {
      S2RDF_ASSIGN_OR_RETURN(
          solutions, engine::ExecutePlan(*result.plan,
                                         CatalogProvider(&catalog_, state),
                                         &graph_.dictionary(), &ctx));
    }
    if (is_graph) {
      S2RDF_ASSIGN_OR_RETURN(result.graph_ntriples,
                             BuildGraph(query, solutions, *state, &ctx));
    } else {
      ctx.metrics.output_tuples = solutions.NumRows();
      result.table = std::move(solutions);
    }
    exec_ms = MillisSince(exec_start);
  }

  result.millis = MillisSince(start);
  result.parse_ms = parse_ms;
  result.compile_ms = compile_ms;
  result.exec_ms = exec_ms;
  result.is_ask = query.form == sparql::QueryForm::kAsk;
  result.ask_result = result.is_ask && result.table.NumRows() > 0;
  result.is_graph = is_graph;
  if (options.max_result_rows > 0 &&
      result.table.NumRows() > options.max_result_rows) {
    result.table = engine::Slice(result.table, 0, options.max_result_rows);
    result.truncated = true;
  }
  result.trace_id = options.trace_id;
  if (result.plan != nullptr) {
    result.plan_fingerprint = engine::PlanFingerprint(*result.plan);
  }
  result.metrics = ctx.metrics;
  if (ctx.collect_profile) {
    engine::QueryProfile& profile = result.profile_data;
    profile.trace_id = options.trace_id;
    profile.operators = std::move(ctx.profile);
    profile.tasks = task_spans.Take();
    profile.parse_ms = parse_ms;
    profile.compile_ms = compile_ms;
    profile.exec_ms = exec_ms;
    profile.total_ms = result.millis;
    profile.totals = ctx.metrics;
    S2RDF_RETURN_IF_ERROR(MaybeDumpTrace(profile, request.query));
  }
  // Enforce the memory budget between queries; in-flight queries keep
  // their tables alive through provider pins.
  catalog_.EvictToBudget();
  return result;
}

Status S2Rdf::MaybeDumpTrace(const engine::QueryProfile& profile,
                             std::string_view query_text) {
  if (trace_dir_.empty()) return Status::Ok();
  Env* env = trace_env_ != nullptr ? trace_env_ : Env::Default();
  uint64_t seq = trace_seq_.fetch_add(1, std::memory_order_relaxed);
  char name[32];
  std::snprintf(name, sizeof(name), "trace-%06llu.json",
                static_cast<unsigned long long>(seq));
  S2RDF_RETURN_IF_ERROR(env->MakeDirs(trace_dir_));
  return env->WriteFileAtomic(
      trace_dir_ + "/" + name,
      engine::RenderTraceJson(profile, std::string(query_text)));
}

StatusOr<std::string> S2Rdf::BuildGraph(const sparql::Query& query,
                                        const rdf::Table& solutions,
                                        const storage::CatalogState& state,
                                        engine::ExecContext* ctx) {
  const rdf::Dictionary& dict = graph_.dictionary();
  // Collect output statements, deduplicated (graphs are sets).
  std::set<std::string> statements;

  if (query.form == sparql::QueryForm::kConstruct) {
    for (size_t r = 0; r < solutions.NumRows(); ++r) {
      if ((r % engine::kInterruptCheckRows) == 0 && ctx->CheckInterrupt()) {
        return ctx->interrupt_status;
      }
      for (const sparql::TriplePattern& tp : query.construct_template) {
        std::string parts[3];
        bool ok = true;
        const sparql::PatternTerm* terms[3] = {&tp.subject, &tp.predicate,
                                               &tp.object};
        for (int i = 0; i < 3 && ok; ++i) {
          if (!terms[i]->is_variable()) {
            parts[i] = terms[i]->value;
            continue;
          }
          int col = solutions.ColumnIndex(terms[i]->value);
          if (col < 0) {
            ok = false;  // Template variable not bound by WHERE.
            break;
          }
          rdf::TermId id = solutions.At(r, static_cast<size_t>(col));
          if (id == rdf::kNullTermId) {
            ok = false;  // Unbound (OPTIONAL): skip this triple.
            break;
          }
          parts[i] = dict.Decode(id);
        }
        // Well-formedness: literals cannot be subjects/predicates,
        // blank nodes cannot be predicates.
        if (ok && (parts[0].front() == '"' || parts[1].front() != '<')) {
          ok = false;
        }
        if (ok) {
          statements.insert(parts[0] + " " + parts[1] + " " + parts[2] +
                            " .");
        }
      }
    }
  } else {
    // DESCRIBE: resolve targets to term ids, then emit every statement
    // with the target as subject (a simple concise bounded description).
    std::set<rdf::TermId> targets;
    for (const sparql::PatternTerm& target : query.describe_targets) {
      if (!target.is_variable()) {
        std::optional<rdf::TermId> id = dict.Find(target.value);
        if (id.has_value()) targets.insert(*id);
        continue;
      }
      int col = solutions.ColumnIndex(target.value);
      if (col < 0) {
        return InvalidArgumentError("DESCRIBE variable ?" + target.value +
                                    " is not bound by the WHERE clause");
      }
      for (size_t r = 0; r < solutions.NumRows(); ++r) {
        rdf::TermId id = solutions.At(r, static_cast<size_t>(col));
        if (id != rdf::kNullTermId) targets.insert(id);
      }
    }
    // Shared ownership keeps the triples table valid even if another
    // query's EvictToBudget drops it from the cache mid-loop.
    S2RDF_ASSIGN_OR_RETURN(std::shared_ptr<const rdf::Table> triples,
                           catalog_.GetTable(state, TriplesTableName()));
    ctx->metrics.input_tuples += triples->NumRows();
    for (size_t r = 0; r < triples->NumRows(); ++r) {
      if ((r % engine::kInterruptCheckRows) == 0 && ctx->CheckInterrupt()) {
        return ctx->interrupt_status;
      }
      if (!targets.contains(triples->At(r, 0))) continue;
      statements.insert(dict.Decode(triples->At(r, 0)) + " " +
                        dict.Decode(triples->At(r, 1)) + " " +
                        dict.Decode(triples->At(r, 2)) + " .");
    }
  }

  std::string ntriples;
  for (const std::string& statement : statements) {
    ntriples += statement + "\n";
  }
  ctx->metrics.output_tuples = statements.size();
  return ntriples;
}

StatusOr<std::shared_ptr<const storage::CatalogState>> S2Rdf::LazyExtVpState(
    const sparql::GraphPattern& where,
    std::shared_ptr<const storage::CatalogState> state) {
  const rdf::Dictionary& dict = graph_.dictionary();
  std::set<ExtVpPair> missing;
  CollectMissingPairs(where, dict, *state, &missing);
  if (missing.empty()) return state;
  // Build and commit under ingest_mu_: commits are serialized, and a pair
  // built from one generation's VP tables must not commit while a batch
  // commits the next, which would leave the pair unmaintained. The pairs
  // are collected again from the state under the lock, which holds
  // whatever a racing query committed meanwhile.
  MutexLock lock(&ingest_mu_);
  state = catalog_.State();
  missing.clear();
  CollectMissingPairs(where, dict, *state, &missing);
  if (missing.empty()) return state;
  S2RDF_RETURN_IF_ERROR(
      CommitExtVpPairs(missing, sf_threshold_, *state, &catalog_));
  lazy_pairs_computed_.fetch_add(missing.size(), std::memory_order_relaxed);
  return catalog_.State();
}

StatusOr<std::shared_ptr<const ExtVpBitmapStore>> S2Rdf::BitmapStoreFor(
    const std::shared_ptr<const storage::CatalogState>& state) {
  MutexLock lock(&bitmap_mu_);
  if (bitmap_state_.lock() != state) {
    S2RDF_ASSIGN_OR_RETURN(
        bitmap_store_,
        ExtVpBitmapStore::Build(sf_threshold_, *state, &catalog_));
    bitmap_state_ = state;
  }
  return bitmap_store_;
}

std::vector<std::vector<std::string>> S2Rdf::DecodeRows(
    const rdf::Table& table) const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(table.NumRows());
  const rdf::Dictionary& dict = graph_.dictionary();
  for (size_t r = 0; r < table.NumRows(); ++r) {
    std::vector<std::string> row;
    row.reserve(table.NumColumns());
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      rdf::TermId id = table.At(r, c);
      row.push_back(id == rdf::kNullTermId ? "" : dict.Decode(id));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace s2rdf::core
