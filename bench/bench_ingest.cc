// Incremental-ingest throughput: delta maintenance vs full rebuild.
//
// The point of the ingest subsystem is that appending a batch and
// delta-maintaining the dependent ExtVP reductions and SF statistics is
// much cheaper than rebuilding every layout from scratch — while
// producing an IDENTICAL store. This harness splits a WatDiv dataset
// into a base and a small append batch (2% by default — same
// distribution as the base, the IL incremental-load shape), then
// measures
//
//   delta_ms   — Ingest(batch) into a store built over the base
//   rebuild_ms — Create over base + batch from scratch
//
// and gates on both properties:
//   1. identity: the delta-maintained store's statistics (entry set,
//      rows, SF, materialization decisions) match the rebuild exactly;
//   2. speedup: rebuild_ms / delta_ms >= 3 (min over rounds).
//
// A second, durable leg ingests the same fixed-size batch (735 triples,
// 1 % of SF 1) ten times into fsynced on-disk stores at SF 1 and SF 4,
// and reports each store's median batch time and bytes written per batch
// (IngestResult::bytes_written: segment plus manifest). It gates on
//   3. bytes: the SF-4 median stays within 1.5x of the SF-1 median — a
//      batch writes what it adds, not a copy of the store.
//
// Output: human-readable table on stderr, JSON on stdout
// (scripts/bench_json.sh captures it as BENCH_ingest.json).

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/file_util.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "core/ingest.h"
#include "core/s2rdf.h"
#include "storage/ingest.h"
#include "watdiv/generator.h"

namespace s2rdf::bench {
namespace {

constexpr double kMinSpeedup = 3.0;

// The durable leg: batches of a fixed size, each a random sample of the
// dataset held back from the store, so SF 1 and SF 4 ingest alike.
constexpr size_t kDurableBatchTriples = 735;
constexpr int kDurableBatches = 10;
constexpr double kMaxBytesRatio = 1.5;

// Decodes a slice of `graph`'s triples back to canonical term strings.
std::vector<storage::IngestTriple> DecodeSlice(const rdf::Graph& graph,
                                               size_t begin, size_t end) {
  std::vector<storage::IngestTriple> out;
  out.reserve(end - begin);
  const rdf::Dictionary& dict = graph.dictionary();
  for (size_t i = begin; i < end; ++i) {
    const rdf::Triple& t = graph.triples()[i];
    out.push_back({dict.Decode(t.subject), dict.Decode(t.predicate),
                   dict.Decode(t.object)});
  }
  return out;
}

// Statistics-level identity: same entry set with same rows, SF and
// materialization decision. Table contents are covered by the unit
// suite (tests/ingest_test.cc); stats identity is the cheap whole-store
// fingerprint appropriate for a benchmark gate.
bool StatsIdentical(core::S2Rdf* a, core::S2Rdf* b) {
  std::map<std::string, const storage::TableStats*> as, bs;
  for (const storage::TableStats* s : a->catalog().AllStats()) as[s->name] = s;
  for (const storage::TableStats* s : b->catalog().AllStats()) bs[s->name] = s;
  if (as.size() != bs.size()) return false;
  for (const auto& [name, sa] : as) {
    auto it = bs.find(name);
    if (it == bs.end()) return false;
    const storage::TableStats* sb = it->second;
    if (sa->rows != sb->rows || sa->selectivity != sb->selectivity ||
        sa->materialized != sb->materialized) {
      return false;
    }
  }
  return true;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n == 0 ? 0.0 : (values[(n - 1) / 2] + values[n / 2]) / 2.0;
}

// One durable store's batches: the median batch's milliseconds and bytes
// written, and the store's bytes before the first batch.
struct DurableLeg {
  double scale_factor = 0.0;
  uint64_t base_triples = 0;
  uint64_t store_bytes = 0;
  double median_ms = 0.0;
  double median_bytes = 0.0;
  bool ok = true;
};

DurableLeg RunDurable(double scale_factor) {
  DurableLeg leg;
  leg.scale_factor = scale_factor;
  watdiv::GeneratorOptions gen;
  gen.scale_factor = scale_factor;
  const rdf::Graph full = watdiv::Generate(gen);
  // Hold back a seeded random sample, batch by batch.
  const size_t total = full.NumTriples();
  const size_t held = kDurableBatchTriples * kDurableBatches;
  std::vector<size_t> order(total);
  for (size_t i = 0; i < total; ++i) order[i] = i;
  SplitMix64 rng(0x5eedba7c4u);
  for (size_t i = total; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  std::vector<bool> in_batch(total, false);
  for (size_t k = 0; k < held; ++k) in_batch[order[k]] = true;
  const rdf::Dictionary& dict = full.dictionary();
  rdf::Graph base;
  for (size_t i = 0; i < total; ++i) {
    if (in_batch[i]) continue;
    const rdf::Triple& t = full.triples()[i];
    base.AddCanonical(dict.Decode(t.subject), dict.Decode(t.predicate),
                      dict.Decode(t.object));
  }
  leg.base_triples = base.NumTriples();

  ScopedTempDir dir;
  core::S2RdfOptions options;
  options.storage_dir = dir.path();
  auto db = core::S2Rdf::Create(std::move(base), options);
  if (!db.ok()) {
    std::fprintf(stderr, "durable store build failed: %s\n",
                 db.status().ToString().c_str());
    leg.ok = false;
    return leg;
  }
  leg.store_bytes = (*db)->catalog().TotalBytes();
  std::vector<double> ms;
  std::vector<double> bytes;
  for (int b = 0; b < kDurableBatches; ++b) {
    storage::IngestBatch batch;
    for (size_t k = 0; k < kDurableBatchTriples; ++k) {
      const rdf::Triple& t =
          full.triples()[order[b * kDurableBatchTriples + k]];
      batch.triples.push_back({dict.Decode(t.subject),
                               dict.Decode(t.predicate),
                               dict.Decode(t.object)});
    }
    StatusOr<storage::IngestResult> result = InvalidArgumentError("unrun");
    ms.push_back(TimeMs([&] { result = (*db)->Ingest(batch); }));
    if (!result.ok()) {
      std::fprintf(stderr, "durable ingest failed: %s\n",
                   result.status().ToString().c_str());
      leg.ok = false;
      return leg;
    }
    bytes.push_back(static_cast<double>(result->bytes_written));
  }
  leg.median_ms = Median(ms);
  leg.median_bytes = Median(bytes);
  return leg;
}

int Run() {
  const int reps = EnvInt("S2RDF_BENCH_ROUNDS", 3);
  watdiv::GeneratorOptions gen;
  gen.scale_factor = EnvDouble("S2RDF_BENCH_SF", 1.0);
  rdf::Graph full = watdiv::Generate(gen);

  // Batch size: 2% of the store by default (S2RDF_BENCH_DELTA_FRAC to
  // override). An incremental batch is small relative to the store by
  // definition — the delta path's advantage shrinks as the batch's
  // predicate footprint approaches the whole schema, because every
  // affected ExtVP pair must re-filter its full old VP source.
  const double frac = EnvDouble("S2RDF_BENCH_DELTA_FRAC", 0.02);
  const size_t total = full.NumTriples();
  const size_t base_count =
      total - std::max<size_t>(1, static_cast<size_t>(total * frac));
  std::vector<storage::IngestTriple> base_terms =
      DecodeSlice(full, 0, base_count);
  std::vector<storage::IngestTriple> delta_terms =
      DecodeSlice(full, base_count, total);

  auto build_graph = [](const std::vector<storage::IngestTriple>& terms) {
    rdf::Graph g;
    for (const storage::IngestTriple& t : terms) {
      g.AddCanonical(t.subject, t.predicate, t.object);
    }
    return g;
  };
  storage::IngestBatch batch;
  batch.triples = delta_terms;

  double delta_ms = 0.0;
  double rebuild_ms = 0.0;
  bool identical = true;
  for (int r = 0; r < reps; ++r) {
    // Fresh base store per round: re-ingesting the same batch would
    // dedup to a no-op.
    auto base_db = core::S2Rdf::Create(build_graph(base_terms), {});
    if (!base_db.ok()) {
      std::fprintf(stderr, "base store build failed: %s\n",
                   base_db.status().ToString().c_str());
      return 1;
    }
    double d = TimeMs([&] {
      auto result = (*base_db)->Ingest(batch);
      if (!result.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     result.status().ToString().c_str());
        identical = false;
      }
    });

    // Rebuild the store over the concatenated stream, timed (graph
    // construction excluded — the fair comparison is layout building).
    std::unique_ptr<core::S2Rdf> rebuilt;
    rdf::Graph concat = build_graph(base_terms);
    for (const storage::IngestTriple& t : delta_terms) {
      concat.AddCanonical(t.subject, t.predicate, t.object);
    }
    double f = TimeMs([&] {
      auto db = core::S2Rdf::Create(std::move(concat), {});
      if (!db.ok()) {
        std::fprintf(stderr, "rebuild failed: %s\n",
                     db.status().ToString().c_str());
        identical = false;
        return;
      }
      rebuilt = std::move(db).value();
    });

    if (rebuilt == nullptr || !StatsIdentical(base_db->get(), rebuilt.get())) {
      identical = false;
    }
    delta_ms = r == 0 ? d : std::min(delta_ms, d);
    rebuild_ms = r == 0 ? f : std::min(rebuild_ms, f);
  }

  const double speedup = delta_ms > 0.0 ? rebuild_ms / delta_ms : 0.0;
  const bool fast_enough = speedup >= kMinSpeedup;

  const DurableLeg sf1 = RunDurable(1.0);
  const DurableLeg sf4 = RunDurable(4.0);
  const double bytes_ratio =
      sf1.median_bytes > 0.0 ? sf4.median_bytes / sf1.median_bytes : 0.0;
  const bool durable_ok = sf1.ok && sf4.ok;
  const bool bytes_flat = durable_ok && bytes_ratio <= kMaxBytesRatio;

  TablePrinter printer({"metric", "value"});
  printer.AddRow({"base triples", FormatCount(base_count)});
  printer.AddRow({"delta triples", FormatCount(total - base_count)});
  printer.AddRow({"delta ingest (min ms)", FormatMs(delta_ms)});
  printer.AddRow({"full rebuild (min ms)", FormatMs(rebuild_ms)});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fx", speedup);
  printer.AddRow({"speedup", buf});
  printer.AddRow({"stores identical", identical ? "yes" : "NO"});
  for (const DurableLeg* leg : {&sf1, &sf4}) {
    const std::string sf = "durable SF " + FormatCount(
        static_cast<uint64_t>(leg->scale_factor));
    printer.AddRow({sf + " store", FormatBytes(leg->store_bytes)});
    printer.AddRow({sf + " batch (median ms)", FormatMs(leg->median_ms)});
    printer.AddRow({sf + " batch (median bytes)",
                    FormatBytes(static_cast<uint64_t>(leg->median_bytes))});
  }
  std::snprintf(buf, sizeof(buf), "%.2fx", bytes_ratio);
  printer.AddRow({"SF-4 / SF-1 bytes per batch", buf});
  std::fprintf(stderr,
               "Incremental ingest vs rebuild (min of %d rounds); durable "
               "batches of %zu triples (medians of %d):\n",
               reps, kDurableBatchTriples, kDurableBatches);
  printer.Print(stderr);

  std::printf("{\n");
  std::printf("  \"task_pool_parallelism\": %zu,\n",
              TaskPool::Shared()->ParallelismWidth());
  std::printf("  \"rounds\": %d,\n", reps);
  std::printf("  \"base_triples\": %zu,\n", base_count);
  std::printf("  \"delta_triples\": %zu,\n", total - base_count);
  std::printf("  \"delta_ingest_ms\": %.3f,\n", delta_ms);
  std::printf("  \"full_rebuild_ms\": %.3f,\n", rebuild_ms);
  std::printf("  \"speedup\": %.2f,\n", speedup);
  std::printf("  \"min_speedup_gate\": %.1f,\n", kMinSpeedup);
  std::printf("  \"stores_identical\": %s,\n", identical ? "true" : "false");
  std::printf("  \"durable_batch_triples\": %zu,\n", kDurableBatchTriples);
  std::printf("  \"durable_batches\": %d,\n", kDurableBatches);
  for (const DurableLeg* leg : {&sf1, &sf4}) {
    const int sf = static_cast<int>(leg->scale_factor);
    std::printf("  \"durable_sf%d_base_triples\": %llu,\n", sf,
                static_cast<unsigned long long>(leg->base_triples));
    std::printf("  \"durable_sf%d_store_bytes\": %llu,\n", sf,
                static_cast<unsigned long long>(leg->store_bytes));
    std::printf("  \"durable_sf%d_median_batch_ms\": %.3f,\n", sf,
                leg->median_ms);
    std::printf("  \"durable_sf%d_median_batch_bytes\": %.0f,\n", sf,
                leg->median_bytes);
  }
  std::printf("  \"durable_bytes_ratio_sf4_sf1\": %.3f,\n", bytes_ratio);
  std::printf("  \"max_bytes_ratio_gate\": %.1f,\n", kMaxBytesRatio);
  std::printf("  \"durable_bytes_gate_passed\": %s,\n",
              bytes_flat ? "true" : "false");
  std::printf("  \"gate_passed\": %s\n}\n",
              identical && fast_enough && bytes_flat ? "true" : "false");

  if (!identical) {
    std::fprintf(stderr, "FAIL: delta-maintained store != rebuild\n");
    return 1;
  }
  if (!fast_enough) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below the %.1fx gate\n",
                 speedup, kMinSpeedup);
    return 1;
  }
  if (!bytes_flat) {
    std::fprintf(stderr,
                 "FAIL: SF-4 bytes per durable batch %.2fx the SF-1 bytes "
                 "(gate %.1fx)\n",
                 bytes_ratio, kMaxBytesRatio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace s2rdf::bench

int main() { return s2rdf::bench::Run(); }
