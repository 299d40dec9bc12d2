#include "core/cardinality.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/layout_names.h"

namespace s2rdf::core {

using sparql::TriplePattern;

double CardinalityEstimator::ScanRows(size_t i,
                                      const TableChoice& choice) const {
  if (choice.empty_result) return 0.0;
  const TriplePattern& tp = bgp_[i];
  double rows = static_cast<double>(choice.rows);

  // A bound predicate scanned out of the triples table keeps exactly the
  // predicate's VP rows — the catalog records them even for quarantined
  // VP tables, so the degraded TT scan still estimates correctly.
  if (choice.is_triples_table && ids_[i].vp != nullptr) {
    rows = static_cast<double>(ids_[i].vp->rows);
  }

  // Residual equalities the scan applies on top of the stored table:
  // each bound subject/object term, and each repeated variable inside
  // the pattern, keeps ~1/sqrt(base) of the rows (the square-root rule
  // for unknown-frequency point selections).
  const double base = std::max(rows, 2.0);
  int residuals = 0;
  if (!tp.subject.is_variable()) ++residuals;
  if (!tp.object.is_variable()) ++residuals;
  if (SameVar(tp.subject, tp.object) || SameVar(tp.subject, tp.predicate) ||
      SameVar(tp.predicate, tp.object)) {
    ++residuals;
  }
  for (int i = 0; i < residuals; ++i) rows /= std::sqrt(base);
  return std::max(rows, 0.0);
}

double CardinalityEstimator::KeepFraction(size_t i, const TableChoice& choice,
                                          size_t j) const {
  const std::optional<rdf::TermId>& p1 = ids_[i].predicate;
  const std::optional<rdf::TermId>& p2 = ids_[j].predicate;
  if (!p1.has_value() || !p2.has_value()) return 1.0;

  const double denom = std::max(static_cast<double>(choice.rows), 1.0);
  double keep = 1.0;
  for (const CorrelationCase& cand : CorrelationsTo(bgp_[i], bgp_[j])) {
    if (!cand.applies) continue;
    if (cand.corr == Correlation::kSS && *p1 == *p2) continue;
    const storage::TableStats* stats =
        state_.Find(ExtVpTableName(cand.corr, *p1, *p2));
    if (stats == nullptr) continue;  // Direction not precomputed.
    // |ExtVP| rows are recorded whether or not the reduction was
    // materialized; against the chosen table they bound the surviving
    // fraction (clamped: the choice may itself be a smaller reduction).
    keep = std::min(keep, std::clamp(static_cast<double>(stats->rows) / denom,
                                     0.0, 1.0));
  }
  return keep;
}

double CardinalityEstimator::JoinRows(double scan_rows_a, double keep_a,
                                      double scan_rows_b, double keep_b) {
  // Every surviving row matches at least one partner row (that is what
  // |ExtVP| counts), so max(surviving) is a guaranteed lower bound on
  // the join size — and it is exact whenever the smaller surviving
  // side's join column is key-like, the common case along WatDiv-style
  // chains. min(surviving) underestimates chains to ~0, which makes
  // every downstream plan look free.
  const double surviving_a = scan_rows_a * keep_a;
  const double surviving_b = scan_rows_b * keep_b;
  return std::max(std::max(surviving_a, surviving_b), 0.0);
}

}  // namespace s2rdf::core
