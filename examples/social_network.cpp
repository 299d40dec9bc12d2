// The paper's running example, end to end: RDF graph G1 (Fig. 1), the
// ExtVP schema it induces (Fig. 10), table selection for query Q1
// (Fig. 11), the effect of join-order optimization (Fig. 12) and the
// join-comparison reduction of ExtVP vs VP (Fig. 8).

#include <cstdio>
#include <string>

#include "core/compiler.h"
#include "core/s2rdf.h"
#include "rdf/graph.h"

namespace {

s2rdf::rdf::Graph MakeG1() {
  s2rdf::rdf::Graph g;
  g.AddIris("A", "follows", "B");
  g.AddIris("B", "follows", "C");
  g.AddIris("B", "follows", "D");
  g.AddIris("C", "follows", "D");
  g.AddIris("A", "likes", "I1");
  g.AddIris("A", "likes", "I2");
  g.AddIris("C", "likes", "I2");
  return g;
}

// Q1: "for all users, the friends of their friends who like the same
// things" (paper Sec. 2.1).
constexpr char kQ1[] =
    "SELECT * WHERE { ?x <likes> ?w . ?x <follows> ?y . "
    "?y <follows> ?z . ?z <likes> ?w }";

}  // namespace

int main() {
  std::printf("== S2RDF running example: graph G1, query Q1 ==\n\n");
  s2rdf::core::S2RdfOptions options;
  auto db = s2rdf::core::S2Rdf::Create(MakeG1(), options);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }

  // --- Fig. 10: the ExtVP schema of G1 ---------------------------------
  std::printf("ExtVP schema (Fig. 10) — stored tables and statistics:\n");
  for (const s2rdf::storage::TableStats* stats :
       (*db)->catalog().AllStats()) {
    if (stats->name.rfind("extvp_", 0) != 0 &&
        stats->name.rfind("vp_", 0) != 0) {
      continue;
    }
    std::printf("  %-34s rows=%llu  SF=%.2f  %s\n", stats->name.c_str(),
                static_cast<unsigned long long>(stats->rows),
                stats->selectivity,
                stats->materialized ? "stored" : "not stored");
  }

  // --- Fig. 11: table selection + generated SQL -------------------------
  auto optimized = (*db)->Execute(
      {.query = kQ1, .options = {.layout = s2rdf::core::Layout::kExtVp}});
  if (!optimized.ok()) {
    std::fprintf(stderr, "%s\n", optimized.status().ToString().c_str());
    return 1;
  }
  std::printf("\nQ1 over ExtVP (Fig. 11) — generated SQL:\n%s\n",
              optimized->plan->ToSql().c_str());
  std::printf("\nphysical plan:\n%s", optimized->plan->ToString().c_str());

  std::printf("\nresult (expected: x=A, w=I2, y=B, z=C):\n");
  for (const auto& row : (*db)->DecodeRows(optimized->table)) {
    for (const std::string& cell : row) std::printf("  %s", cell.c_str());
    std::printf("\n");
  }

  // --- Fig. 12: join-order optimization ---------------------------------
  auto unoptimized = (*db)->Execute(
      {.query = kQ1, .options = {.optimizer = {.reorder_joins = false}}});
  if (unoptimized.ok()) {
    std::printf(
        "\njoin-order optimization (Fig. 12):\n"
        "  optimized   (Alg. 4): %llu join comparisons\n"
        "  pattern-order (Alg. 3): %llu join comparisons\n",
        static_cast<unsigned long long>(
            optimized->metrics.join_comparisons),
        static_cast<unsigned long long>(
            unoptimized->metrics.join_comparisons));
  }

  // --- Fig. 8: ExtVP vs VP ----------------------------------------------
  auto vp = (*db)->Execute(
      {.query = kQ1, .options = {.layout = s2rdf::core::Layout::kVp}});
  if (vp.ok()) {
    std::printf(
        "\nExtVP vs VP on Q1 (Fig. 8 mechanism):\n"
        "  ExtVP: input=%llu tuples, comparisons=%llu\n"
        "  VP:    input=%llu tuples, comparisons=%llu\n",
        static_cast<unsigned long long>(optimized->metrics.input_tuples),
        static_cast<unsigned long long>(
            optimized->metrics.join_comparisons),
        static_cast<unsigned long long>(vp->metrics.input_tuples),
        static_cast<unsigned long long>(vp->metrics.join_comparisons));
  }
  return 0;
}
