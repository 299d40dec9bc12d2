// Reproduces Fig. 13 / Table 3 of the paper: the WatDiv Selectivity
// Testing (ST) workload comparing S2RDF over ExtVP against S2RDF over
// plain VP, plus the ExtVP selectivity factors the workload was designed
// around (paper Appendix B) side by side with their measured values.

#include <cstdio>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "core/layout_names.h"
#include "core/s2rdf.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"
#include "watdiv/schema.h"

namespace s2rdf::bench {
namespace {

std::string FullIri(const std::string& prefixed) {
  size_t colon = prefixed.find(':');
  std::string prefix = prefixed.substr(0, colon);
  std::string local = prefixed.substr(colon + 1);
  std::string ns;
  if (prefix == "wsdbm") {
    ns = watdiv::kWsdbm;
  } else if (prefix == "sorg") {
    ns = watdiv::kSorg;
  } else if (prefix == "rev") {
    ns = watdiv::kRev;
  } else if (prefix == "foaf") {
    ns = watdiv::kFoaf;
  } else if (prefix == "mo") {
    ns = watdiv::kMo;
  }
  return "<" + ns + local + ">";
}

int Main() {
  std::printf(
      "== Table 3 / Fig. 13: WatDiv Selectivity Testing, ExtVP vs VP ==\n\n");
  double sf = EnvDouble("S2RDF_BENCH_SF", 1.0);
  int repetitions = EnvInt("S2RDF_BENCH_REPS", 3);

  watdiv::GeneratorOptions gen;
  gen.scale_factor = sf;
  core::S2RdfOptions options;
  auto db = core::S2Rdf::Create(watdiv::Generate(gen), options);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset: WatDiv-like SF %.2f, %llu triples\n\n", sf,
              static_cast<unsigned long long>((*db)->graph().NumTriples()));

  // --- Measured vs designed ExtVP selectivities -------------------------
  struct SfCheck {
    const char* correlation;
    const char* p1;
    const char* p2;
    double paper_sf;
  };
  const SfCheck checks[] = {
      {"OS", "wsdbm:friendOf", "sorg:email", 0.90},
      {"OS", "wsdbm:friendOf", "foaf:age", 0.50},
      {"OS", "wsdbm:friendOf", "sorg:jobTitle", 0.05},
      {"SO", "sorg:email", "wsdbm:friendOf", 1.00},
      {"SO", "wsdbm:friendOf", "wsdbm:follows", 0.90},
      {"OS", "wsdbm:follows", "wsdbm:friendOf", 0.40},
      {"SO", "wsdbm:friendOf", "rev:reviewer", 0.31},
      {"SO", "wsdbm:friendOf", "sorg:author", 0.04},
      {"OS", "wsdbm:follows", "wsdbm:likes", 0.24},
      {"SO", "wsdbm:likes", "wsdbm:follows", 0.90},
      {"SS", "wsdbm:friendOf", "sorg:email", 0.90},
      {"SS", "wsdbm:friendOf", "wsdbm:follows", 0.77},
      {"SS", "wsdbm:follows", "wsdbm:friendOf", 0.40},
      {"OS", "wsdbm:friendOf", "sorg:language", 0.00},
      {"OS", "wsdbm:follows", "sorg:language", 0.00},
  };
  TablePrinter sf_table(
      {"correlation", "p1", "p2", "paper SF", "measured SF"});
  const rdf::Dictionary& dict = (*db)->graph().dictionary();
  for (const SfCheck& check : checks) {
    std::string measured = "0 (empty)";
    std::optional<rdf::TermId> p1 = dict.Find(FullIri(check.p1));
    std::optional<rdf::TermId> p2 = dict.Find(FullIri(check.p2));
    if (p1.has_value() && p2.has_value()) {
      core::Correlation corr = std::string(check.correlation) == "OS"
                                   ? core::Correlation::kOS
                               : std::string(check.correlation) == "SO"
                                   ? core::Correlation::kSO
                                   : core::Correlation::kSS;
      const std::optional<storage::TableStats> stats =
          (*db)->catalog().GetStats(core::ExtVpTableName(corr, *p1, *p2));
      if (stats.has_value()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", stats->selectivity);
        measured = buf;
      }
    }
    char paper[32];
    std::snprintf(paper, sizeof(paper), "%.2f", check.paper_sf);
    sf_table.AddRow(
        {check.correlation, check.p1, check.p2, paper, measured});
  }
  sf_table.Print();

  // --- ST query runtimes: ExtVP vs VP -----------------------------------
  std::printf("\n");
  TablePrinter runtime_table({"query", "ExtVP ms", "VP ms", "speedup",
                              "ExtVP input", "VP input", "rows"});
  std::vector<std::pair<std::string, double>> speedups;
  for (const watdiv::QueryTemplate& tmpl :
       watdiv::SelectivityTestingQueries()) {
    std::string query = InstantiateFor(tmpl, sf, 0);
    double extvp_ms = 0;
    double vp_ms = 0;
    uint64_t extvp_input = 0;
    uint64_t vp_input = 0;
    uint64_t rows = 0;
    extvp_ms = MeanMs(repetitions, [&] {
      auto result = (*db)->Execute(
          {.query = query, .options = {.layout = core::Layout::kExtVp}});
      if (result.ok()) {
        extvp_input = result->metrics.input_tuples;
        rows = result->table.NumRows();
      }
    });
    vp_ms = MeanMs(repetitions, [&] {
      auto result = (*db)->Execute(
          {.query = query, .options = {.layout = core::Layout::kVp}});
      if (result.ok()) vp_input = result->metrics.input_tuples;
    });
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  extvp_ms > 0 ? vp_ms / extvp_ms : 0.0);
    speedups.emplace_back(tmpl.name, extvp_ms > 0 ? vp_ms / extvp_ms : 0.0);
    runtime_table.AddRow({tmpl.name, FormatMs(extvp_ms), FormatMs(vp_ms),
                          speedup, FormatCount(extvp_input),
                          FormatCount(vp_input), FormatCount(rows)});
  }
  runtime_table.Print();
  PrintBarChart("Fig. 13 (VP/ExtVP speedup per ST query):", speedups, "x",
                /*log_scale=*/false);

  std::printf(
      "\nPaper reference (SF10000): ExtVP beats VP by ~14x (ST-1-3), ~18x\n"
      "(ST-3-3), ~4x on small-input variants; ST-8-x answer in 0 ms from\n"
      "statistics alone while VP computes large dangling intermediate\n"
      "results. The expected shape: speedup grows as the designed SF\n"
      "shrinks, and ExtVP never reads more input than VP.\n");
  return 0;
}

}  // namespace
}  // namespace s2rdf::bench

int main() { return s2rdf::bench::Main(); }
