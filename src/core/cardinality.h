#ifndef S2RDF_CORE_CARDINALITY_H_
#define S2RDF_CORE_CARDINALITY_H_

#include <vector>

#include "core/table_selection.h"
#include "sparql/ast.h"
#include "storage/catalog.h"

// Cardinality estimation over the catalog's statistics. The inputs are
// exactly what the ExtVP precomputation already pays for: per-table row
// counts and selectivity factors SF = |ExtVP| / |VP| (Sec. 5.2). SF
// entries exist even for reductions the store never materialized (empty
// tables, SF-threshold-pruned tables, quarantined tables), so the
// estimator keeps working across the ExtVP -> VP -> TT degradation
// path — the statistics survive even when the data does not.
//
// Shared variables between patterns combine under the textbook
// independence assumption; the estimates feed the cost-based join
// enumeration in core/optimizer.{h,cc}.

namespace s2rdf::core {

class CardinalityEstimator {
 public:
  // Estimates over the patterns of `bgp`, with `ids` =
  // ResolveBgp(bgp, ...), from the statistics of `state` only. All three
  // must outlive the estimator.
  CardinalityEstimator(const storage::CatalogState& state,
                       const std::vector<sparql::TriplePattern>& bgp,
                       const std::vector<PatternIds>& ids)
      : state_(state), bgp_(bgp), ids_(ids) {}

  // Estimated output rows of scanning `choice` for pattern `i`: the
  // chosen table's row count, discounted by sqrt(rows) per residual
  // equality the scan applies on top of the stored table (bound
  // subject/object terms, repeated variables). A bound predicate over
  // the triples table uses the predicate's exact VP row count instead
  // (the catalog knows it even when the VP table is quarantined).
  double ScanRows(size_t i, const TableChoice& choice) const;

  // Fraction of pattern `i`'s scan output (`choice`) expected to
  // survive a join with pattern `j`, derived from the ExtVP statistics
  // of their correlations: |ExtVP_corr(p_i | p_j)| / rows(choice). 1.0
  // when no statistic applies (unbound predicates, VP-only layouts,
  // shared predicate variables); the minimum over correlations when
  // several apply.
  double KeepFraction(size_t i, const TableChoice& choice, size_t j) const;

  // Estimated rows of joining two patterns' scans on their shared
  // variables, from each side's scan rows and its KeepFraction toward
  // the other: max over both sides of rows * keep — a lower bound
  // (every ExtVP-surviving row matches at least one partner), exact
  // when the smaller side's join column is key-like.
  static double JoinRows(double scan_rows_a, double keep_a,
                         double scan_rows_b, double keep_b);

 private:
  const storage::CatalogState& state_;
  const std::vector<sparql::TriplePattern>& bgp_;
  const std::vector<PatternIds>& ids_;
};

}  // namespace s2rdf::core

#endif  // S2RDF_CORE_CARDINALITY_H_
