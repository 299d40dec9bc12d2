#ifndef S2RDF_BASELINES_SEMPALA_ENGINE_H_
#define S2RDF_BASELINES_SEMPALA_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/layouts.h"
#include "engine/exec_context.h"
#include "rdf/graph.h"
#include "rdf/table.h"
#include "sparql/ast.h"
#include "storage/catalog.h"

// Sempala analogue: a unified property table whose star-shaped
// sub-patterns ("triple groups") are answered by a single scan without
// joins, with multi-valued predicates handled by row duplication (the
// paper's Table 1 / Fig. 7) or auxiliary tables. The characteristic
// behaviour the paper observes — star queries need no joins but every
// group pays a full property-table scan — falls out of this design.

namespace s2rdf::baselines {

struct SempalaOptions {
  core::PropertyTableStrategy strategy =
      core::PropertyTableStrategy::kAuxiliaryTables;
  int num_partitions = 9;
};

struct SempalaResult {
  rdf::Table table;
  engine::ExecMetrics metrics;
  uint64_t star_groups = 0;
  double wall_ms = 0.0;
};

class SempalaEngine {
 public:
  // Builds the property table (and auxiliary tables) for `graph`, which
  // must outlive the engine.
  static StatusOr<std::unique_ptr<SempalaEngine>> Create(
      const rdf::Graph* graph, SempalaOptions options);

  // Parses and evaluates a SELECT query over a plain BGP (with FILTER
  // and solution modifiers).
  StatusOr<SempalaResult> Execute(std::string_view sparql);

  const core::PropertyTableBuildStats& build_stats() const {
    return build_stats_;
  }
  const storage::Catalog& catalog() const { return catalog_; }

 private:
  SempalaEngine(const rdf::Graph* graph, SempalaOptions options)
      : graph_(*graph), options_(options), catalog_("") {}

  // Evaluates one star group (patterns sharing a subject).
  StatusOr<rdf::Table> EvaluateStarGroup(
      const std::vector<const sparql::TriplePattern*>& group,
      engine::ExecContext* ctx);

  const rdf::Graph& graph_;
  SempalaOptions options_;
  storage::Catalog catalog_;
  core::PropertyTableBuildStats build_stats_;
  // Predicate id -> PT column name for inlined predicates.
  std::unordered_map<rdf::TermId, std::string> inline_columns_;
  std::unordered_set<rdf::TermId> aux_predicates_;
};

}  // namespace s2rdf::baselines

#endif  // S2RDF_BASELINES_SEMPALA_ENGINE_H_
