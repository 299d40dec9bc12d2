// Reproduces Table 2 of the paper: load times, tuple counts, store sizes
// and table counts for VP/ExtVP and the competitor layouts, across a
// sweep of WatDiv scale factors.
//
// Scale note: the paper ran WatDiv SF10..SF10000 (1M..1.1B triples) on a
// 10-node cluster. This harness defaults to SF {0.1, 0.3, 1} of our
// generator (~7.5K..75K triples); set S2RDF_BENCH_SF_MAX to raise the
// sweep. The *ratios* (ExtVP/VP tuple blow-up, table counts, relative
// sizes) are the reproduction target.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "baselines/permutation_index.h"
#include "baselines/sempala_engine.h"
#include "bench/bench_util.h"
#include "common/file_util.h"
#include "core/layouts.h"
#include "rdf/ntriples.h"
#include "storage/catalog.h"
#include "watdiv/generator.h"

namespace s2rdf::bench {
namespace {

struct SfReport {
  double sf;
  uint64_t original_tuples = 0;
  uint64_t vp_tuples = 0;
  uint64_t extvp_tuples = 0;
  uint64_t original_bytes = 0;
  uint64_t vp_bytes = 0;
  uint64_t extvp_bytes = 0;
  uint64_t h2rdf_tuples = 0;
  uint64_t sempala_pt_rows = 0;
  double vp_load_s = 0;
  double extvp_load_s = 0;
  double h2rdf_load_s = 0;
  double sempala_load_s = 0;
  uint64_t vp_tables = 0;
  uint64_t extvp_tables = 0;
  uint64_t extvp_empty = 0;
  uint64_t extvp_sf1 = 0;
};

// Nullopt, with the reason on stderr, when a load fails.
std::optional<SfReport> MeasureScaleFactor(double sf) {
  SfReport report;
  report.sf = sf;
  watdiv::GeneratorOptions gen;
  gen.scale_factor = sf;
  rdf::Graph graph = watdiv::Generate(gen);
  report.original_tuples = graph.NumTriples();
  report.original_bytes = rdf::WriteNTriples(graph).size();

  // Each load is its builder plus the commit that makes it durable (one
  // segment and one manifest flip); the sizes are the committed blobs.
  ScopedTempDir dir;
  storage::Catalog catalog(dir.path());
  Status commit;
  report.vp_load_s = TimeMs([&] {
                       commit = core::BuildVpLayout(graph, &catalog);
                       if (commit.ok()) commit = catalog.SaveManifest();
                     }) /
                     1000.0;
  if (!commit.ok()) {
    std::fprintf(stderr, "VP load failed: %s\n", commit.ToString().c_str());
    return std::nullopt;
  }
  report.vp_tables = catalog.NumMaterializedTables();
  report.vp_tuples = catalog.TotalTuples();
  report.vp_bytes = catalog.TotalBytes();

  core::ExtVpOptions extvp_options;  // No SF threshold.
  StatusOr<core::ExtVpBuildStats> extvp_stats = core::ExtVpBuildStats();
  report.extvp_load_s =
      TimeMs([&] {
        extvp_stats = core::BuildExtVpLayout(graph, extvp_options, &catalog);
        if (extvp_stats.ok()) commit = catalog.SaveManifest();
      }) /
      1000.0;
  if (!extvp_stats.ok() || !commit.ok()) {
    std::fprintf(stderr, "ExtVP load failed: %s\n",
                 (extvp_stats.ok() ? commit : extvp_stats.status())
                     .ToString()
                     .c_str());
    return std::nullopt;
  }
  report.extvp_tables = extvp_stats->tables_materialized;
  report.extvp_empty = extvp_stats->tables_empty;
  report.extvp_sf1 = extvp_stats->tables_equal_vp;
  report.extvp_tuples = report.vp_tuples + extvp_stats->tuples_materialized;
  report.extvp_bytes = catalog.TotalBytes();

  report.h2rdf_load_s = TimeMs([&] {
                          baselines::PermutationIndexStore store(graph);
                          report.h2rdf_tuples = store.TotalIndexTuples();
                        }) /
                        1000.0;

  Status sempala;
  report.sempala_load_s =
      TimeMs([&] {
        baselines::SempalaOptions options;
        auto engine = baselines::SempalaEngine::Create(&graph, options);
        sempala = engine.status();
        if (engine.ok()) {
          report.sempala_pt_rows = (*engine)->build_stats().pt_rows;
        }
      }) /
      1000.0;
  if (!sempala.ok()) {
    std::fprintf(stderr, "Sempala load failed: %s\n",
                 sempala.ToString().c_str());
    return std::nullopt;
  }
  return report;
}

int Main() {
  std::printf(
      "== Table 2: WatDiv load times and store sizes "
      "(paper Sec. 7, Table 2) ==\n\n");
  double max_sf = EnvDouble("S2RDF_BENCH_SF_MAX", 1.0);
  std::vector<double> sweep;
  for (double sf : {0.1, 0.3, 1.0, 3.0, 10.0}) {
    if (sf <= max_sf) sweep.push_back(sf);
  }

  std::vector<SfReport> reports;
  for (double sf : sweep) {
    std::optional<SfReport> report = MeasureScaleFactor(sf);
    if (!report.has_value()) return 1;
    reports.push_back(*report);
  }

  std::vector<std::string> headers = {"metric"};
  for (const SfReport& r : reports) {
    headers.push_back("SF" + std::to_string(r.sf).substr(0, 4));
  }
  TablePrinter table(headers);
  auto row = [&](const std::string& name,
                 const std::function<std::string(const SfReport&)>& cell) {
    std::vector<std::string> cells = {name};
    for (const SfReport& r : reports) cells.push_back(cell(r));
    table.AddRow(std::move(cells));
  };

  row("tuples original",
      [](const SfReport& r) { return FormatCount(r.original_tuples); });
  row("tuples VP",
      [](const SfReport& r) { return FormatCount(r.vp_tuples); });
  row("tuples ExtVP",
      [](const SfReport& r) { return FormatCount(r.extvp_tuples); });
  row("ExtVP/VP tuple ratio", [](const SfReport& r) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1fx",
                  static_cast<double>(r.extvp_tuples) /
                      static_cast<double>(r.vp_tuples));
    return std::string(buf);
  });
  row("size original (N-Triples)",
      [](const SfReport& r) { return FormatBytes(r.original_bytes); });
  row("size VP", [](const SfReport& r) { return FormatBytes(r.vp_bytes); });
  row("size VP+ExtVP",
      [](const SfReport& r) { return FormatBytes(r.extvp_bytes); });
  row("tuples H2RDF (6 indexes)",
      [](const SfReport& r) { return FormatCount(r.h2rdf_tuples); });
  row("rows Sempala PT",
      [](const SfReport& r) { return FormatCount(r.sempala_pt_rows); });
  row("load VP (s)", [](const SfReport& r) {
    return FormatMs(r.vp_load_s * 1000.0) + "ms";
  });
  row("load ExtVP (s)", [](const SfReport& r) {
    return FormatMs(r.extvp_load_s * 1000.0) + "ms";
  });
  row("load H2RDF (s)", [](const SfReport& r) {
    return FormatMs(r.h2rdf_load_s * 1000.0) + "ms";
  });
  row("load Sempala (s)", [](const SfReport& r) {
    return FormatMs(r.sempala_load_s * 1000.0) + "ms";
  });
  row("tables VP",
      [](const SfReport& r) { return std::to_string(r.vp_tables); });
  row("tables ExtVP (0<SF<1)",
      [](const SfReport& r) { return std::to_string(r.extvp_tables); });
  row("tables ExtVP empty (SF=0)",
      [](const SfReport& r) { return std::to_string(r.extvp_empty); });
  row("tables ExtVP equal VP (SF=1)",
      [](const SfReport& r) { return std::to_string(r.extvp_sf1); });
  table.Print();

  std::printf(
      "\nPaper reference (SF10000): ExtVP = ~11x VP tuples; >90%% of\n"
      "potential ExtVP tables empty or equal to VP and hence not stored;\n"
      "ExtVP load dominated by semi-join precomputation (56x VP load).\n");
  return 0;
}

}  // namespace
}  // namespace s2rdf::bench

int main() { return s2rdf::bench::Main(); }
