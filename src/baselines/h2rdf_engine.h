#ifndef S2RDF_BASELINES_H2RDF_ENGINE_H_
#define S2RDF_BASELINES_H2RDF_ENGINE_H_

#include <memory>
#include <string_view>

#include "baselines/centralized_engine.h"
#include "baselines/mr_sparql_engine.h"
#include "baselines/permutation_index.h"
#include "common/status.h"
#include "rdf/graph.h"

// H2RDF+ analogue: six clustered triple indexes with aggregated
// statistics, plus an adaptive planner that executes selective queries
// centrally (index merge/nested-loop joins on one node) and ships
// unselective ones to MapReduce. The paper's Sec. 7.2 shows exactly this
// bimodal behaviour — competitive on selective queries, orders of
// magnitude slower once the cost model picks the MapReduce path.

namespace s2rdf::baselines {

struct H2RdfOptions {
  // A query whose largest triple-pattern cardinality estimate exceeds
  // this bound is executed via MapReduce (H2RDF+ estimates join input
  // size from its aggregated index statistics the same way).
  uint64_t centralized_input_limit = 100000;
  MrEngineOptions mr;
};

struct H2RdfResult {
  rdf::Table table;
  bool centralized = true;
  uint64_t jobs = 0;  // MapReduce jobs (0 when centralized).
  double wall_ms = 0.0;
};

class H2RdfEngine {
 public:
  // `graph` must outlive the engine. Builds the permutation indexes.
  H2RdfEngine(const rdf::Graph* graph, H2RdfOptions options);

  StatusOr<H2RdfResult> Execute(std::string_view sparql) const;

  // Estimated centralized input size (max pattern cardinality) used by
  // the adaptive decision; exposed for tests.
  StatusOr<uint64_t> EstimateInput(std::string_view sparql) const;

  const PermutationIndexStore& store() const { return store_; }

 private:
  const rdf::Graph& graph_;
  H2RdfOptions options_;
  PermutationIndexStore store_;
  CentralizedBgpEngine centralized_;
  MrSparqlEngine mapreduce_;
};

}  // namespace s2rdf::baselines

#endif  // S2RDF_BASELINES_H2RDF_ENGINE_H_
