#ifndef S2RDF_CORE_COMPILER_H_
#define S2RDF_CORE_COMPILER_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/optimizer.h"
#include "core/table_selection.h"
#include "engine/plan.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "storage/catalog.h"

// SPARQL -> relational plan compiler. BGP compilation is an explicit
// three-stage pipeline:
//
//   Analyze   Algorithm 1 per pattern (table selection) plus the
//             cardinality estimator's view: per-scan row estimates and
//             the join graph with SF-derived selectivities.
//   Optimize  A pluggable core::Optimizer picks the join tree — the
//             paper's heuristic (Algorithms 3/4) or the cost-based
//             enumerator, selected by OptimizerOptions::mode.
//   Plan      Lowers the tree to engine::PlanNodes, interleaving FILTER
//             pushdown (Sec. 6) and semi-join reducers, and annotating
//             nodes with the optimizer's estimates for EXPLAIN.
//
// The query-level mapping of FILTER / OPTIONAL / UNION / DISTINCT /
// ORDER BY / LIMIT / OFFSET onto the engine's operators sits on top.

namespace s2rdf::core {

struct CompilerOptions {
  Layout layout = Layout::kExtVp;
  // Allow the statistics-only empty-result shortcut (SF = 0 tables).
  bool use_statistics_shortcut = true;
  // Apply FILTERs as soon as their variables are bound inside the BGP
  // join pipeline instead of after the whole group (the "filter
  // pushing" of Sec. 6).
  bool push_filters = true;
  // Required for Layout::kExtVpBitmap; must outlive the compiler.
  const ExtVpBitmapStore* bitmap_store = nullptr;
  // Optimizer selection and knobs for the Optimize stage.
  OptimizerOptions optimizer;
};

class QueryCompiler {
 public:
  // Compiles against one catalog state: table selection and the
  // estimator read statistics and quarantine from `state` only. `dict`
  // must outlive the compiler.
  QueryCompiler(std::shared_ptr<const storage::CatalogState> state,
                const rdf::Dictionary* dict, CompilerOptions options);
  // Compiles against `catalog->State()`, taken once here.
  QueryCompiler(const storage::Catalog* catalog, const rdf::Dictionary* dict,
                CompilerOptions options);

  // Compiles a parsed query to an executable plan.
  StatusOr<engine::PlanPtr> Compile(const sparql::Query& query) const;

  // Compiles a bare BGP (used by tests and baseline engines): Analyze,
  // then Optimize via the configured optimizer, then Plan. `filters`
  // are FILTER expressions to interleave into the join pipeline as soon
  // as their variables are bound (pushdown); any filter whose variables
  // are never fully bound is applied last.
  StatusOr<engine::PlanPtr> CompileBgp(
      const std::vector<sparql::TriplePattern>& bgp,
      const std::vector<const sparql::Expr*>& filters = {}) const;

  // Stage 1: table selection + cardinality estimation + join graph.
  // When the statistics prove the BGP empty, the returned analysis has
  // empty_result set and no further stage applies.
  StatusOr<BgpAnalysis> Analyze(
      const std::vector<sparql::TriplePattern>& bgp) const;

  // Stage 3: lowers an optimized join tree over `analysis` to a plan.
  StatusOr<engine::PlanPtr> Plan(
      const BgpAnalysis& analysis, const JoinTree& tree,
      const std::vector<const sparql::Expr*>& filters = {}) const;

  // The resolved Optimize stage (paper or cost).
  const Optimizer& optimizer() const { return *optimizer_; }

 private:
  StatusOr<engine::PlanPtr> CompileGroup(
      const sparql::GraphPattern& pattern) const;
  StatusOr<engine::PlanPtr> ScanForPattern(const sparql::TriplePattern& tp,
                                           const TableChoice& choice) const;
  // Recursive Plan-stage worker; see compiler.cc for the filter
  // placement rule that keeps paper-mode plans byte-identical to the
  // pre-pipeline compiler.
  StatusOr<engine::PlanPtr> LowerTree(
      const BgpAnalysis& analysis, const JoinTree& tree, bool is_right_leaf,
      std::vector<const sparql::Expr*>* pending,
      std::unordered_set<std::string>* available) const;

  std::shared_ptr<const storage::CatalogState> state_;
  const rdf::Dictionary& dict_;
  CompilerOptions options_;
  std::unique_ptr<Optimizer> optimizer_;
  // One queries_degraded tick per compiled query, however many patterns
  // had to substitute tables. Compilers are per-query, so this does not
  // need synchronization; mutable because Compile is const.
  mutable bool noted_degraded_ = false;
};

}  // namespace s2rdf::core

#endif  // S2RDF_CORE_COMPILER_H_
