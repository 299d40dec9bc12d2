#include "core/table_selection.h"

namespace s2rdf::core {

using sparql::PatternTerm;
using sparql::TriplePattern;

bool SameVar(const PatternTerm& a, const PatternTerm& b) {
  return a.is_variable() && b.is_variable() && a.value == b.value;
}

std::array<CorrelationCase, 3> CorrelationsTo(const TriplePattern& tp,
                                              const TriplePattern& other) {
  return {{{SameVar(tp.subject, other.subject), Correlation::kSS},
           {SameVar(tp.subject, other.object), Correlation::kSO},
           {SameVar(tp.object, other.subject), Correlation::kOS}}};
}

std::vector<PatternIds> ResolveBgp(const std::vector<TriplePattern>& bgp,
                                   const rdf::Dictionary& dict,
                                   const storage::CatalogState& state) {
  std::vector<PatternIds> ids(bgp.size());
  for (size_t i = 0; i < bgp.size(); ++i) {
    const TriplePattern& tp = bgp[i];
    for (const PatternTerm* term : {&tp.subject, &tp.object}) {
      if (!term->is_variable() && !dict.Find(term->value).has_value()) {
        ids[i].absent_term = true;
      }
    }
    if (tp.predicate.is_variable()) continue;
    const std::optional<rdf::TermId> p = dict.Find(tp.predicate.value);
    if (!p.has_value()) continue;
    ids[i].vp = state.Find(VpTableName(*p));
    if (ids[i].vp == nullptr) continue;
    ids[i].predicate = p;
  }
  return ids;
}

namespace {

// Layout::kExtVpBitmap selection: intersect the bitmaps of every
// applicable correlation over the pattern's VP table (the paper's
// proposed unification strategy).
StatusOr<TableChoice> SelectWithBitmaps(
    size_t tp_index, const std::vector<TriplePattern>& bgp,
    const std::vector<PatternIds>& ids, bool use_statistics_shortcut,
    const ExtVpBitmapStore& store, rdf::TermId p1, TableChoice choice) {
  const TriplePattern& tp = bgp[tp_index];
  for (size_t j = 0; j < bgp.size(); ++j) {
    if (j == tp_index) continue;
    const std::optional<rdf::TermId>& p2 = ids[j].predicate;
    if (!p2.has_value()) continue;
    for (const CorrelationCase& cand : CorrelationsTo(tp, bgp[j])) {
      if (!cand.applies) continue;
      if (cand.corr == Correlation::kSS && p1 == *p2) continue;
      if (store.IsEmpty(cand.corr, p1, *p2)) {
        if (use_statistics_shortcut) {
          choice = TableChoice();
          choice.empty_result = true;
          return choice;
        }
        continue;
      }
      const Bitmap* bitmap = store.Get(cand.corr, p1, *p2);
      if (bitmap == nullptr) continue;  // SF = 1 or threshold-pruned.
      if (choice.row_filter == nullptr) {
        choice.row_filter = std::make_shared<Bitmap>(*bitmap);
        choice.row_filter_label.clear();
      } else {
        choice.row_filter->IntersectWith(*bitmap);
      }
      if (!choice.row_filter_label.empty()) choice.row_filter_label += "&";
      choice.row_filter_label +=
          std::string(CorrelationName(cand.corr)) + "|" + std::to_string(*p2);
    }
  }
  if (choice.row_filter != nullptr) {
    choice.layout_label = "ExtVP-bitmap";
    choice.rows = choice.row_filter->CountSetBits();
    choice.sf = choice.row_filter->size_bits() == 0
                    ? 0.0
                    : static_cast<double>(choice.rows) /
                          static_cast<double>(choice.row_filter->size_bits());
    if (choice.rows == 0 && use_statistics_shortcut) {
      // The intersection is empty: a statically-provable empty result
      // that the table representation cannot always detect.
      choice = TableChoice();
      choice.empty_result = true;
    }
  }
  return choice;
}

}  // namespace

StatusOr<TableChoice> SelectTable(size_t tp_index,
                                  const std::vector<TriplePattern>& bgp,
                                  const std::vector<PatternIds>& ids,
                                  Layout layout,
                                  bool use_statistics_shortcut,
                                  const storage::CatalogState& state,
                                  const ExtVpBitmapStore* bitmap_store) {
  if (tp_index >= bgp.size()) {
    return InvalidArgumentError("tp_index out of range");
  }
  const TriplePattern& tp = bgp[tp_index];
  TableChoice choice;

  // Bound subject/object terms that are absent from the dictionary can
  // never match: the statistics (dictionary) already prove emptiness.
  if (use_statistics_shortcut && ids[tp_index].absent_term) {
    choice.empty_result = true;
    return choice;
  }

  // Unbound predicate: only the triples table can answer it (Sec. 5.2).
  if (tp.predicate.is_variable() || layout == Layout::kTriplesTable) {
    const storage::TableStats* stats = state.Find(TriplesTableName());
    if (stats == nullptr) {
      return FailedPreconditionError(
          "triples table required but not built (unbound predicate or "
          "triples-table layout)");
    }
    choice.table_name = TriplesTableName();
    choice.rows = stats->rows;
    choice.is_triples_table = true;
    choice.layout_label = "TT";
    return choice;
  }

  const std::optional<rdf::TermId>& p1 = ids[tp_index].predicate;
  if (!p1.has_value()) {
    // No VP table: no triple has this predicate.
    choice.empty_result = true;
    return choice;
  }

  const std::string& vp_name = ids[tp_index].vp->name;
  choice.sf = 1.0;
  choice.rows = ids[tp_index].vp->rows;

  // A quarantined VP table cannot be scanned; degrade to the triples
  // table with an explicit predicate selection (is_triples_table makes
  // ScanForPattern emit it). TT ⊇ VP, so results are unchanged.
  if (state.quarantined.contains(vp_name)) {
    const storage::TableStats* tt_stats = state.Find(TriplesTableName());
    if (tt_stats == nullptr || state.quarantined.contains(TriplesTableName())) {
      return FailedPreconditionError(
          "VP table quarantined and no triples table to degrade to: " +
          vp_name);
    }
    choice.table_name = TriplesTableName();
    choice.sf = 1.0;
    choice.rows = tt_stats->rows;
    choice.is_triples_table = true;
    choice.degraded = true;
    choice.layout_label = "TT";
    return choice;
  }
  choice.table_name = vp_name;

  if (layout == Layout::kVp) return choice;

  if (layout == Layout::kExtVpBitmap) {
    if (bitmap_store == nullptr) {
      return FailedPreconditionError(
          "Layout::kExtVpBitmap requires an ExtVpBitmapStore");
    }
    return SelectWithBitmaps(tp_index, bgp, ids, use_statistics_shortcut,
                             *bitmap_store, *p1, std::move(choice));
  }

  // A store without ExtVP has no reductions: a missing entry then means
  // "not built", not "empty".
  if (state.Find(kExtVpMarker) == nullptr) return choice;

  // Examine the correlations of tp to every other pattern (Algorithm 1).
  for (size_t j = 0; j < bgp.size(); ++j) {
    if (j == tp_index) continue;
    const std::optional<rdf::TermId>& p2 = ids[j].predicate;
    // An unbound predicate has no reductions; an absent one makes that
    // pattern empty on its own.
    if (!p2.has_value()) continue;

    for (const CorrelationCase& cand : CorrelationsTo(tp, bgp[j])) {
      if (!cand.applies) continue;
      if (cand.corr == Correlation::kSS && *p1 == *p2) {
        continue;  // SS self-correlation is the VP table itself.
      }
      std::string name = ExtVpTableName(cand.corr, *p1, *p2);
      const storage::TableStats* stats = state.Find(name);
      if (stats == nullptr || stats->rows == 0) {
        // No stats entry means the semi-join was empty (SF = 0): the
        // whole BGP can be answered statically. The lazy path records
        // empty reductions explicitly with zero rows.
        if (use_statistics_shortcut) {
          choice = TableChoice();
          choice.empty_result = true;
          return choice;
        }
        continue;
      }
      if (!stats->materialized) continue;  // SF = 1 or pruned by threshold.
      if (stats->selectivity < choice.sf) {
        if (state.quarantined.contains(name)) {
          // The better ExtVP table is corrupt: stay on the current
          // (superset) choice and record the degradation.
          choice.degraded = true;
          continue;
        }
        choice.table_name = std::move(name);
        choice.fallback_table = vp_name;
        choice.sf = stats->selectivity;
        choice.rows = stats->rows;
        choice.layout_label = "ExtVP";
      }
    }
  }
  return choice;
}

}  // namespace s2rdf::core
