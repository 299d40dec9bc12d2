// Quickstart: load a small RDF graph, build the S2RDF layouts (VP +
// ExtVP), and run SPARQL queries over them.
//
//   ./quickstart [path/to/data.nt]
//
// Without an argument it uses a built-in dataset.

#include <cstdio>
#include <string>

#include "core/s2rdf.h"
#include "rdf/ntriples.h"

namespace {

constexpr char kBuiltinData[] = R"(
<http://example.org/alice> <http://example.org/knows> <http://example.org/bob> .
<http://example.org/alice> <http://example.org/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://example.org/bob>   <http://example.org/knows> <http://example.org/carol> .
<http://example.org/bob>   <http://example.org/age> "35"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://example.org/carol> <http://example.org/likes> <http://example.org/pizza> .
<http://example.org/alice> <http://example.org/likes> <http://example.org/pizza> .
)";

constexpr char kQuery[] = R"(
PREFIX ex: <http://example.org/>
SELECT ?person ?friend ?food WHERE {
  ?person ex:knows ?friend .
  ?friend ex:likes ?food .
}
)";

}  // namespace

int main(int argc, char** argv) {
  // 1. Load an RDF graph (N-Triples).
  s2rdf::rdf::Graph graph;
  s2rdf::Status load = argc > 1
                           ? s2rdf::rdf::LoadNTriplesFile(argv[1], &graph)
                           : s2rdf::rdf::ParseNTriples(kBuiltinData, &graph);
  if (!load.ok()) {
    std::fprintf(stderr, "load failed: %s\n", load.ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu triples\n", graph.NumTriples());

  // 2. Build the relational layouts. Default options build the triples
  //    table, VP, and the full ExtVP schema (no SF threshold).
  s2rdf::core::S2RdfOptions options;
  auto db = s2rdf::core::S2Rdf::Create(std::move(graph), options);
  if (!db.ok()) {
    std::fprintf(stderr, "layout build failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  std::printf("catalog: %zu materialized tables, %llu tuples\n\n",
              (*db)->catalog().NumMaterializedTables(),
              static_cast<unsigned long long>((*db)->catalog().TotalTuples()));

  // 3. Run a SPARQL query over ExtVP. Execute takes one QueryRequest:
  //    the query text plus its per-query controls (deadline, row limit,
  //    layout, ...); omitted options keep their defaults.
  auto result = (*db)->Execute(
      {.query = kQuery, .options = {.timeout_ms = 5000}});
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("compiled SQL:\n%s\n\n", result->plan->ToSql().c_str());
  std::printf("results (%zu rows, %.3f ms, %s):\n",
              result->table.NumRows(), result->millis,
              result->metrics.ToString().c_str());
  for (const auto& row : (*db)->DecodeRows(result->table)) {
    for (const std::string& cell : row) std::printf("  %s", cell.c_str());
    std::printf("\n");
  }
  return 0;
}
