#ifndef S2RDF_BASELINES_CENTRALIZED_ENGINE_H_
#define S2RDF_BASELINES_CENTRALIZED_ENGINE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "baselines/permutation_index.h"
#include "common/status.h"
#include "rdf/dictionary.h"
#include "rdf/table.h"
#include "sparql/ast.h"

// Single-node BGP evaluation over the sextuple permutation indexes using
// greedy selectivity ordering and index nested-loop joins — the
// execution model of centralized stores such as Virtuoso/RDF-3X and of
// H2RDF+'s centralized mode. Excellent on selective patterns, degrades
// on unselective ones (large intermediate binding sets), which is
// exactly the behaviour the paper's Sec. 7 observes.

namespace s2rdf::baselines {

struct CentralizedResult {
  rdf::Table table;  // Columns = variables in first-appearance order.
  uint64_t index_lookups = 0;    // Range-scan probes issued.
  uint64_t scanned_triples = 0;  // Triples touched by those scans.
  double wall_ms = 0.0;
};

class CentralizedBgpEngine {
 public:
  // `store` and `dict` must outlive the engine.
  CentralizedBgpEngine(const PermutationIndexStore* store,
                       const rdf::Dictionary* dict)
      : store_(*store), dict_(*dict) {}

  // Evaluates a basic graph pattern.
  StatusOr<CentralizedResult> ExecuteBgp(
      const std::vector<sparql::TriplePattern>& bgp) const;

  // Parses and evaluates a SELECT query whose WHERE clause is a plain
  // BGP (with optional FILTER / DISTINCT / ORDER BY / LIMIT / OFFSET).
  StatusOr<CentralizedResult> Execute(std::string_view sparql) const;

 private:
  const PermutationIndexStore& store_;
  const rdf::Dictionary& dict_;
};

}  // namespace s2rdf::baselines

#endif  // S2RDF_BASELINES_CENTRALIZED_ENGINE_H_
