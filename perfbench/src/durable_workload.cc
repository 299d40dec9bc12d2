// durable: the one workload that writes. N-Triples -> a durable store on
// the checkout's filesystem (S2Rdf::Create with storage_dir), reopen
// (S2Rdf::Open), a cold pass, passes with the table cache capped below
// the pass's working set, and 1 % ingest batches, each fsynced as the
// program does it. Untraced runs repeat this cycle on kSegments stores;
// the last one ingests all ten batches and has its answers checked in
// full.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/random.h"
#include "common/task_pool.h"
#include "core/ingest.h"
#include "dataset.h"
#include "rdf/ntriples.h"
#include "storage/table_file.h"
#include "timing_env.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sc = s2rdf::core;
namespace fs = std::filesystem;

constexpr int kBatches = 10;
constexpr double kBatchShare = 0.01;
// Batches ingested on every segment's store but the final one, which
// ingests all kBatches: enough for a per-segment median at a fraction of
// the time (a batch takes ~0.6 s on the ext4 host this was written on).
constexpr int kSegmentBatches = 2;
// Cache budget as a share of the bytes cached after the cold pass: sized
// from the pass's working set, not from the store.
constexpr double kCacheShare = 0.25;

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

// The query set of every pass: one seeded instantiation of each Basic
// Testing template plus the http-bulk Selectivity queries.
std::vector<std::string> PassQueries(uint64_t seed) {
  std::vector<std::string> queries;
  for (const auto& texts : BasicQueryPool(seed, 1)) queries.push_back(texts[0]);
  for (const std::string& q : SelectivityQueries()) queries.push_back(q);
  return queries;
}

std::vector<uint32_t> Shuffled(uint64_t seed, size_t n) {
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  s2rdf::SplitMix64 rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Uniform(i)]);
  return order;
}

// Caps the table cache of `db` at kCacheShare of what it holds now (the
// query pass's working set, right after a pass); returns the budget.
uint64_t CapCache(sc::S2Rdf* db) {
  const uint64_t working_set = db->catalog().CachedBytes();
  const uint64_t budget = std::max<uint64_t>(
      1, static_cast<uint64_t>(kCacheShare * static_cast<double>(working_set)));
  db->catalog().SetMemoryBudget(budget);
  db->catalog().EvictToBudget();
  return budget;
}

std::unique_ptr<sc::S2Rdf> InMemoryStore(const std::string& ntriples,
                                         RunOutput* out) {
  s2rdf::rdf::Graph graph;
  if (auto s = s2rdf::rdf::ParseNTriples(ntriples, &graph); !s.ok()) {
    out->Fail("N-Triples parse: " + s.ToString());
    return nullptr;
  }
  auto db = sc::S2Rdf::Create(std::move(graph), sc::S2RdfOptions());
  if (!db.ok()) {
    out->Fail("S2Rdf::Create: " + db.status().ToString());
    return nullptr;
  }
  return std::move(*db);
}

// One set-up: generate, load to disk, reopen, serve, cold pass.
struct SetUpTimes {
  double total_s = 0, load_s = 0, open_ms = 0, cold_pass_ms = 0;
  double recover_ms = 0;  // Traced runs only.
  uint64_t store_bytes = 0, base_bytes = 0, tables = 0;
};

bool DurableSetUp(const RunConfig& config, const std::string& dir,
                  s2rdf::Env* env, const std::vector<std::string>& wires,
                  const Oracle& before, SpanRecorder* rec, Served* served,
                  SetUpTimes* t, RunOutput* out) {
  const auto start = Clock::now();
  HoldoutSplit split;
  {
    ScopedSpan span(rec, "setup.generate");
    split = SplitForIngest(WatDivNTriples(kScaleFactor), config.seed, kBatches,
                           kBatchShare);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  const auto load = Clock::now();
  {
    ScopedSpan span(rec, "core.create");
    s2rdf::rdf::Graph graph;
    if (auto s = s2rdf::rdf::ParseNTriples(split.base, &graph); !s.ok()) {
      out->Fail("N-Triples parse: " + s.ToString());
      return false;
    }
    sc::S2RdfOptions options;
    options.storage_dir = dir;
    options.env = env;
    auto db = sc::S2Rdf::Create(std::move(graph), options);
    if (!db.ok()) {
      out->Fail("S2Rdf::Create: " + db.status().ToString());
      return false;
    }
    t->tables = (*db)->catalog().NumMaterializedTables();
  }
  t->load_s = Ms(load, Clock::now()) / 1000.0;
  t->store_bytes = DirBytes(dir);
  t->base_bytes = split.base.size();
  if (rec != nullptr) {
    // Traced: recovery alone, on a throwaway catalog over the same (clean,
    // so unchanged) store, tells Open's dictionary load apart from it.
    s2rdf::storage::Catalog catalog(dir, env);
    const auto a = Clock::now();
    {
      ScopedSpan span(rec, "storage.recover");
      auto report = catalog.Recover();
      if (!report.ok()) out->Fail("Recover: " + report.status().ToString());
    }
    t->recover_ms = Ms(a, Clock::now());
  }
  const auto open = Clock::now();
  s2rdf::StatusOr<std::unique_ptr<sc::S2Rdf>> db =
      s2rdf::InvalidArgumentError("unopened");
  {
    ScopedSpan span(rec, "core.open");
    db = sc::S2Rdf::Open(dir, 9, env);
  }
  t->open_ms = Ms(open, Clock::now());
  if (!db.ok()) {
    out->Fail("S2Rdf::Open: " + db.status().ToString());
    return false;
  }
  if ((*db)->recovery_report().tables_quarantined != 0 ||
      (*db)->catalog().quarantined_tables() != 0) {
    out->Fail("tables quarantined after Open of a clean store");
  }
  if (!Serve(std::move(*db), served, out)) return false;
  const auto cold = Clock::now();
  HttpConnection conn(served->port);
  for (uint32_t q : Shuffled(config.seed, wires.size())) {
    ScopedSpan span(rec, "server.http_round_trip");
    HttpReply r = conn.Exchange(wires[q], false);
    ++out->attempted;
    if (!r.transport_ok || r.status != 200 || !r.has_trace_id ||
        r.body_bytes != before.expect[q].body_bytes) {
      ++out->failed;
      out->Fail("cold pass: wrong or failed answer");
    }
  }
  t->cold_pass_ms = Ms(cold, Clock::now());
  t->total_s = Ms(start, Clock::now()) / 1000.0;
  return true;
}

}  // namespace

RunOutput RunDurable(const RunConfig& config) {
  RunOutput out;
  const std::string root =
      config.work_dir + "/durable-" + std::to_string(getpid());
  const std::vector<std::string> queries = PassQueries(config.seed);
  std::vector<std::string> wires;
  for (const std::string& q : queries) wires.push_back(BuildGetRequest(q));
  const HoldoutSplit split = SplitForIngest(WatDivNTriples(kScaleFactor),
                                            config.seed, kBatches, kBatchShare);

  // Reference answers before and after the ingest batches, and the scan
  // count of each query (the denominator of the cache miss ratio).
  Oracle before, after;
  std::vector<uint64_t> scans(queries.size(), 0);
  {
    auto base = InMemoryStore(split.base, &out);
    std::string all = split.base;
    for (const std::string& b : split.batches) all += b;
    auto full = InMemoryStore(all, &out);
    if (base == nullptr || full == nullptr) return out;
    before = BuildOracle(base.get(), queries, &out);
    after = BuildOracle(full.get(), queries, &out);
    for (size_t q = 0; q < queries.size(); ++q) {
      sc::QueryRequest request;
      request.query = queries[q];
      request.options.collect_profile = true;
      auto r = base->Execute(request);
      if (!r.ok()) continue;
      for (const auto& op : r->profile_data.operators) {
        if (op.label.rfind("Scan(", 0) == 0) ++scans[q];
      }
    }
  }
  uint64_t ingest_bytes = 0;
  std::vector<s2rdf::storage::IngestBatch> batches;
  for (const std::string& text : split.batches) {
    ingest_bytes += text.size();
    auto batch = sc::MakeBatchFromNTriples(text);
    if (!batch.ok()) {
      out.Fail("ingest batch parse: " + batch.status().ToString());
      return out;
    }
    batches.push_back(std::move(*batch));
  }

  TimingEnv timing;
  SpanRecorder recorder;
  SpanRecorder* rec = config.trace ? &recorder : nullptr;
  s2rdf::Env* env = config.trace ? &timing : nullptr;
  s2rdf::MetricsRegistry pool_registry;
  LayerInputs in;
  if (config.trace) {
    timing.set_recorder(rec);
    s2rdf::TaskPool::Shared()->AttachMetrics(&pool_registry);
    // The public builders in Create's order, on a catalog over the
    // timing Env, so each builder's self time excludes its file I/O.
    TracedBuild(split.base, &timing, root + "/builders", rec, &in, &out);
    const IoCounts build = timing.Counts();
    in.write_ms = static_cast<double>(build.write_ns) / 1e6;
    in.fsync_ms = static_cast<double>(build.fsync_ns) / 1e6;
    in.fsyncs = build.fsyncs;
    in.files_written = build.files_written;
    in.bytes_written = build.bytes_written;
  }

  // --- kSegments cycles (one when traced), each on a store of its own:
  // set-up (load, reopen, cold pass), passes with the table cache capped
  // below the cold pass's working set, then ingest batches. Each
  // end-to-end figure is the median over the segments, as in the query
  // workloads; spreading the cycles over the run also times ingest at
  // its start, middle and end, and the shared host's fsync and CPU speed
  // drift within a minute.
  const int segments = config.trace ? 1 : kSegments;
  std::vector<SetUpTimes> setups;
  std::vector<double> p50s, p90s, pass_ms, latencies;
  std::vector<double> ingest_ms;
  // Per segment, the median batch's triples added per second.
  std::vector<double> ingest_rates;
  std::vector<uint64_t> ingest_spans;
  uint64_t working_set = 0, budget = 0, churn_scans = 0, added_total = 0;
  IoCounts setup_reads, churn, ingest;
  Served served;
  const IoCounts before_setup = timing.Counts();
  for (int seg = 0; seg < segments; ++seg) {
    const bool final_segment = seg + 1 == segments;
    served.Stop();
    SetUpTimes t;
    if (!DurableSetUp(config, root + "/store", env, wires, before, rec,
                      &served, &t, &out)) {
      return out;
    }
    setups.push_back(t);
    if (config.trace) s2rdf::TaskPool::Shared()->AttachMetrics(&pool_registry);
    if (final_segment) {
      CheckAnswers(served.port, wires, before,
                   Shuffled(config.seed ^ 1, wires.size()), "reopened store",
                   &out);
    }
    sc::S2Rdf* db = served.db.get();
    working_set = db->catalog().CachedBytes();
    budget = CapCache(db);

    // --- Passes with the cache capped below the pass's working set.
    std::vector<double> seg_latencies;
    std::vector<uint32_t> seg_query;  // Query of each latency sample.
    const IoCounts churn_start = timing.Counts();
    setup_reads = churn_start - before_setup;
    churn_scans = 0;
    const double churn_ms = 1000.0 * 0.5 * config.seconds / segments;
    const auto churn_begin = Clock::now();
    for (int pass = 0;
         pass == 0 || (!config.trace && Ms(churn_begin, Clock::now()) < churn_ms);
         ++pass) {
      if (config.trace) timing.set_remember_table_reads(true);
      const auto a = Clock::now();
      LoadResult r = DriveClosedLoop(
          served.port, wires, before.expect,
          Shuffled(config.seed * 31 + static_cast<uint64_t>(100 * seg + pass),
                   wires.size()),
          0.0, wires.size());
      pass_ms.push_back(Ms(a, Clock::now()));
      const std::vector<double> pass_latencies = r.Latencies();
      seg_latencies.insert(seg_latencies.end(), pass_latencies.begin(),
                           pass_latencies.end());
      seg_query.insert(seg_query.end(), r.sent.begin(), r.sent.end());
      for (uint32_t q : r.sent) churn_scans += scans[q];
      out.attempted += r.samples.size();
      const uint64_t bad = r.failures + r.wrong_answers + r.missing_trace;
      out.failed += bad;
      if (bad > 0) {
        out.Fail(Fmt("capped-cache pass %.0f: %.0f failed or wrong answers",
                     pass, static_cast<double>(bad)));
      }
      if (config.trace) timing.set_remember_table_reads(false);
    }
    churn = timing.Counts() - churn_start;
    p50s.push_back(MedianOfGroupMedians(seg_latencies, seg_query, wires.size()));
    p90s.push_back(ComputePercentile(seg_latencies, 0.9).value);
    latencies.insert(latencies.end(), seg_latencies.begin(),
                     seg_latencies.end());
    if (final_segment) {
      // Full solution bags with the cache still capped, outside the timed
      // passes: eviction and re-reads must not change an answer.
      CheckAnswers(served.port, wires, before,
                   Shuffled(config.seed ^ 4, wires.size()),
                   "capped-cache store", &out);
    }
    if (config.trace) {
      // Decode cost of the table blobs the churn pass read (before ingest
      // supersedes their files).
      for (const std::string& path : timing.TakeTableReads()) {
        std::string blob;
        if (!s2rdf::Env::Default()->ReadFile(path, &blob).ok()) continue;
        const auto a = Clock::now();
        auto table = s2rdf::storage::DeserializeTable(blob);
        in.decode_ms += Ms(a, Clock::now());
        if (!table.ok()) out.Fail("decode: " + table.status().ToString());
      }
      HistSummary admission = ReadHistogram(&served.endpoint->registry(),
                                            "s2rdf_admission_wait_seconds");
      in.admission_wait_ms =
          admission.count > 0 ? admission.sum * 1000.0 / admission.count : 0.0;
    }

    // --- 1 % ingest batches: all ten on the final segment's store, the
    // first kSegmentBatches on the others. Every batch must add the
    // triples the split expects.
    const IoCounts ingest_start = timing.Counts();
    std::vector<double> seg_rates;
    added_total = 0;
    for (int b = 0; b < (final_segment ? kBatches : kSegmentBatches); ++b) {
      const auto a = Clock::now();
      s2rdf::StatusOr<s2rdf::storage::IngestResult> result =
          s2rdf::InvalidArgumentError("not ingested");
      {
        ScopedSpan span(rec, "core.ingest", 1000 + b);
        ingest_spans.push_back(span.id());
        result = db->Ingest(batches[static_cast<size_t>(b)]);
      }
      ingest_ms.push_back(Ms(a, Clock::now()));
      ++out.attempted;
      if (!result.ok()) {
        ++out.failed;
        out.Fail("ingest: " + result.status().ToString());
        continue;
      }
      added_total += result->triples_added;
      seg_rates.push_back(static_cast<double>(result->triples_added) /
                          (ingest_ms.back() / 1000.0));
      const uint64_t expected = split.expected_added[static_cast<size_t>(b)];
      if (result->triples_added != expected) {
        ++out.failed;
        out.Fail(Fmt("ingest batch %.0f added %.0f triples, expected %.0f", b,
                     static_cast<double>(result->triples_added),
                     static_cast<double>(expected)));
      }
    }
    ingest = timing.Counts() - ingest_start;
    ingest_rates.push_back(Median(seg_rates));
    if (final_segment) {
      // The post-ingest store must give the post-ingest reference answers.
      db->catalog().SetMemoryBudget(0);
      CheckAnswers(served.port, wires, after,
                   Shuffled(config.seed ^ 2, wires.size()),
                   "post-ingest store", &out);
    }
  }
  const double peak_rss = PeakRssMb();
  const SetUpTimes last = setups.back();

  std::vector<double> loads, opens, colds, totals;
  for (const SetUpTimes& t : setups) {
    loads.push_back(t.load_s);
    opens.push_back(t.open_ms);
    colds.push_back(t.cold_pass_ms);
    totals.push_back(t.total_s);
  }
  const double store_ratio = static_cast<double>(last.store_bytes) /
                             static_cast<double>(last.base_bytes);
  out.Note(Fmt("inputs: WatDiv SF %.0f, %.0f N-Triples bytes loaded, %.0f "
               "materialized tables",
               kScaleFactor, static_cast<double>(last.base_bytes),
               static_cast<double>(last.tables)) +
           Fmt(", %.0f store bytes; %.0f-query passes; %.0f segments",
               static_cast<double>(last.store_bytes),
               static_cast<double>(wires.size()), segments));
  out.Note(Fmt("load_s %.4f s, open_ms %.3f ms, cold_pass_ms %.3f ms "
               "(medians of the set-ups)",
               Median(loads), Median(opens), Median(colds)));
  out.Note(Fmt("store_bytes_ratio %.6f B/B", store_ratio));
  out.Note(Fmt("cache budget %.0f B = %.2f x the %.0f B the cold pass cached",
               static_cast<double>(budget), kCacheShare,
               static_cast<double>(working_set)));
  out.Note(Fmt("churn_pass_ms %.3f ms (median of %.0f passes); table-file "
               "reads %.0f for %.0f scans in the last segment",
               Median(pass_ms), static_cast<double>(pass_ms.size()),
               static_cast<double>(churn.table_reads),
               static_cast<double>(churn_scans)));
  out.Note(Fmt("ingest_ms %.3f ms (median of %.0f batches over all stores), "
               "%.0f triples added to the last store; throughput = median "
               "over segments of the median batch's rate",
               Median(ingest_ms), static_cast<double>(ingest_ms.size()),
               static_cast<double>(added_total)));
  out.exact_counts["store_bytes"] = last.store_bytes;
  out.exact_counts["triples_added"] = added_total;

  if (config.trace) {
    in.recover_ms = last.recover_ms;
    in.dictionary_load_ms = last.open_ms - last.recover_ms;
    // Reads of the set-up (recovery, Open, cold pass) and the churn pass.
    const IoCounts reads = setup_reads + churn;
    in.read_ms = static_cast<double>(reads.read_ns) / 1e6;
    in.reads = reads.reads;
    in.bytes_read = reads.bytes_read;
    in.cache_miss_ratio = churn_scans > 0
                              ? static_cast<double>(churn.table_reads) /
                                    static_cast<double>(churn_scans)
                              : 0.0;
    // Ingest: self time excludes the Env calls it made.
    auto self = SelfTimesNs(recorder.Spans());
    double ingest_self = 0;
    for (uint64_t id : ingest_spans) ingest_self += static_cast<double>(self[id]);
    in.ingest_self_ms = ingest_self / 1e6 / std::max<size_t>(1, ingest_spans.size());
    in.write_ms += static_cast<double>(ingest.write_ns) / 1e6;
    in.fsync_ms += static_cast<double>(ingest.fsync_ns) / 1e6;
    in.fsyncs += ingest.fsyncs;
    in.files_written += ingest.files_written;
    in.bytes_written += ingest.bytes_written;
    in.ingest_write_amplification = static_cast<double>(ingest.bytes_written) /
                                    static_cast<double>(ingest_bytes);
    // Per-request layers on the post-ingest store, one request at a time.
    TracedQueryPass(&served, queries, wires,
                    Shuffled(config.seed ^ 3, wires.size()), rec, 1, &in.query,
                    &out);
    // Then the analytic set on the same store: the pass queries are plain
    // BGPs, so the distinct, order-by, aggregate, filter, union and
    // left-join operators only run here.
    const std::vector<std::string> analytic = AnalyticQueries();
    std::vector<std::string> analytic_wires;
    for (const std::string& q : analytic) {
      analytic_wires.push_back(BuildGetRequest(q));
    }
    TracedQueryPass(&served, analytic, analytic_wires,
                    Shuffled(config.seed ^ 5, analytic.size()), rec,
                    1 + wires.size(), &in.query, &out);
    HistSummary pool = ReadHistogram(&pool_registry,
                                     "s2rdf_task_pool_queue_wait_seconds");
    in.pool_tasks = pool.count;
    in.pool_queue_wait_ms = pool.count > 0 ? pool.sum * 1000.0 / pool.count : 0;
    AddLayerMetrics(in, &out);
    out.exact_counts["storage.fsyncs"] = in.fsyncs;
    out.exact_counts["storage.files_written"] = in.files_written;
    out.exact_counts["storage.bytes_written"] = in.bytes_written;
    out.spans = recorder.Spans();
  } else {
    // Medians over the segments, unlike the query workloads' best
    // segment for p90 and throughput: a durable segment's readings swing
    // both ways within one run (a set-up, a churn block and an ingest
    // block on a store of its own), and over six seeds the best segment
    // spread 0.17-0.26 where the median spread 0.09-0.16.
    const double p50 = Median(p50s), p90 = Median(p90s);
    const double throughput = Median(ingest_rates);
    // The rule of ten samples beyond applies to the run's requests as a
    // whole; each segment's p90 is one estimate of it.
    if (!ComputePercentile(latencies, 0.9).reportable) {
      out.Fail("too few churn samples for p90");
    }
    out.Note(Fmt("churn requests: %.0f; p50 %.3f ms (median over segments of "
                 "the median query's median), p90 %.3f ms (median over "
                 "segments), whole-run p90 %.3f ms",
                 static_cast<double>(latencies.size()), p50, p90,
                 ComputePercentile(latencies, 0.9).value));
    out.Note("per segment: " + Series("setup_s", totals) + "; " +
             Series("p50_ms", p50s) + "; " + Series("p90_ms", p90s) + "; " +
             Series("throughput", ingest_rates));
    out.Add("setup_s", Median(totals), "s");
    out.Add("p50_ms", p50, "ms");
    out.Add("p90_ms", p90, "ms");
    out.Add("throughput", throughput, "1/s");
    out.Add("peak_rss_mb", peak_rss, "MiB");
  }
  if (out.failed > 0) {
    out.Fail(std::to_string(out.failed) + " of " +
             std::to_string(out.attempted) +
             " operations failed or answered wrongly");
  }
  served.Stop();
  std::error_code ec;
  fs::remove_all(root, ec);
  return out;
}

}  // namespace perfbench
