#include "core/table_selection.h"

#include <optional>

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

namespace {

// Layout::kExtVpBitmap selection: intersect the bitmaps of every
// applicable correlation over the pattern's VP table (the paper's
// proposed unification strategy).
StatusOr<TableChoice> SelectWithBitmaps(
    size_t tp_index, const std::vector<TriplePattern>& bgp,
    bool use_statistics_shortcut, const ExtVpBitmapStore& store,
    rdf::TermId p1, TableChoice choice,
    const rdf::Dictionary& dict) {
  const TriplePattern& tp = bgp[tp_index];
  for (size_t j = 0; j < bgp.size(); ++j) {
    if (j == tp_index) continue;
    const TriplePattern& other = bgp[j];
    if (other.predicate.is_variable()) continue;
    std::optional<rdf::TermId> p2 = dict.Find(other.predicate.value);
    if (!p2.has_value()) continue;
    for (const CorrelationCase& cand : CorrelationsTo(tp, other)) {
      if (!cand.applies) continue;
      if (cand.corr == Correlation::kSS && p1 == *p2) continue;
      if (!store.HasCorrelation(cand.corr)) continue;
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
          std::string(CorrelationName(cand.corr)) + "|" +
          PredicateFragment(dict.Decode(*p2));
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
                                  Layout layout,
                                  bool use_statistics_shortcut,
                                  const storage::Catalog& catalog,
                                  const rdf::Dictionary& dict,
                                  const ExtVpBitmapStore* bitmap_store) {
  if (tp_index >= bgp.size()) {
    return InvalidArgumentError("tp_index out of range");
  }
  const TriplePattern& tp = bgp[tp_index];
  TableChoice choice;

  // Bound subject/object terms that are absent from the dictionary can
  // never match: the statistics (dictionary) already prove emptiness.
  if (use_statistics_shortcut) {
    for (const PatternTerm* term : {&tp.subject, &tp.object}) {
      if (!term->is_variable() && !dict.Find(term->value).has_value()) {
        choice.empty_result = true;
        return choice;
      }
    }
  }

  // Unbound predicate: only the triples table can answer it (Sec. 5.2).
  if (tp.predicate.is_variable() || layout == Layout::kTriplesTable) {
    const std::optional<storage::TableStats> stats =
        catalog.GetStats(TriplesTableName());
    if (!stats) {
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

  std::optional<rdf::TermId> p1 = dict.Find(tp.predicate.value);
  if (!p1.has_value()) {
    // Predicate absent from the dataset: no VP table exists.
    choice.empty_result = true;
    return choice;
  }

  std::string vp_name = VpTableName(dict, *p1);
  const std::optional<storage::TableStats> vp_stats =
      catalog.GetStats(vp_name);
  if (!vp_stats) {
    return FailedPreconditionError("VP table missing: " + vp_name);
  }
  choice.table_name = vp_name;
  choice.sf = 1.0;
  choice.rows = vp_stats->rows;

  // A quarantined VP table cannot be scanned; degrade to the triples
  // table with an explicit predicate selection (is_triples_table makes
  // ScanForPattern emit it). TT ⊇ VP, so results are unchanged.
  if (catalog.IsQuarantined(vp_name)) {
    const std::optional<storage::TableStats> tt_stats =
        catalog.GetStats(TriplesTableName());
    if (!tt_stats || catalog.IsQuarantined(TriplesTableName())) {
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

  if (layout == Layout::kVp) return choice;

  if (layout == Layout::kExtVpBitmap) {
    if (bitmap_store == nullptr) {
      return FailedPreconditionError(
          "Layout::kExtVpBitmap requires an ExtVpBitmapStore");
    }
    return SelectWithBitmaps(tp_index, bgp, use_statistics_shortcut,
                             *bitmap_store, *p1, std::move(choice), dict);
  }

  // Examine the correlations of tp to every other pattern (Algorithm 1).
  for (size_t j = 0; j < bgp.size(); ++j) {
    if (j == tp_index) continue;
    const TriplePattern& other = bgp[j];
    if (other.predicate.is_variable()) continue;
    std::optional<rdf::TermId> p2 = dict.Find(other.predicate.value);
    if (!p2.has_value()) continue;  // That pattern is empty on its own.

    for (const CorrelationCase& cand : CorrelationsTo(tp, other)) {
      if (!cand.applies) continue;
      if (cand.corr == Correlation::kSS && *p1 == *p2) {
        continue;  // SS self-correlation is the VP table itself.
      }
      // Skip directions that were not precomputed.
      std::string meta =
          "meta_extvp_" + std::string(CorrelationName(cand.corr));
      if (!catalog.Has(meta)) continue;
      std::string name = ExtVpTableName(dict, cand.corr, *p1, *p2);
      if (catalog.IsStaleSource(vp_name) ||
          catalog.IsStaleSource(VpTableName(dict, *p2))) {
        // A deferred ingest appended to one of the pair's VP tables:
        // the reduction misses those triples (it is no longer a
        // superset of a fresh semi-join) and its statistics
        // undercount, so neither the empty-result shortcut nor a scan
        // may use it until RefreshStaleExtVp catches up.
        continue;
      }
      const std::optional<storage::TableStats> stats =
          catalog.GetStats(name);
      if (!stats) {
        // No stats entry for a built direction means the semi-join was
        // empty (SF = 0): the whole BGP can be answered statically.
        if (use_statistics_shortcut) {
          choice = TableChoice();
          choice.empty_result = true;
          return choice;
        }
        continue;
      }
      if (stats->rows == 0) {
        // Lazily-computed empty reduction (BuildExtVpLayout leaves empty
        // combinations without a stats entry; the lazy path records
        // them explicitly).
        if (use_statistics_shortcut) {
          choice = TableChoice();
          choice.empty_result = true;
          return choice;
        }
        continue;
      }
      if (!stats->materialized) continue;  // SF = 1 or pruned by threshold.
      if (stats->selectivity < choice.sf) {
        if (catalog.IsQuarantined(name)) {
          // The better ExtVP table is corrupt: stay on the current
          // (superset) choice and record the degradation.
          choice.degraded = true;
          continue;
        }
        choice.table_name = name;
        choice.sf = stats->selectivity;
        choice.rows = stats->rows;
        choice.layout_label = "ExtVP";
      }
    }
  }
  return choice;
}

}  // namespace s2rdf::core
