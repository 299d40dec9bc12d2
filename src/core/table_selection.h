#ifndef S2RDF_CORE_TABLE_SELECTION_H_
#define S2RDF_CORE_TABLE_SELECTION_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "common/status.h"
#include "core/extvp_bitmap.h"
#include "core/layout_names.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "storage/catalog.h"

// Algorithm 1 of the paper: choosing, for a triple pattern within a BGP,
// the stored table with the best (smallest) selectivity factor among the
// VP table and all ExtVP tables induced by the pattern's correlations to
// the other patterns in the BGP.

namespace s2rdf::core {

// Which layout family the compiler targets.
enum class Layout {
  kExtVp,         // VP + ExtVP with statistics (the paper's S2RDF).
  kVp,            // Plain vertical partitioning (baseline in Sec. 7.1).
  kTriplesTable,  // Single triples table (Sec. 4.1 baseline).
  // VP + bit-vector ExtVP with correlation intersection (the paper's
  // future work, Sec. 8): each pattern scans its VP table through the
  // AND of the bitmaps of *all* its correlations.
  kExtVpBitmap,
};

struct TableChoice {
  // Catalog name of the table to scan. Empty when `empty_result`.
  std::string table_name;
  // SF of the chosen table (1.0 for VP / triples table).
  double sf = 1.0;
  // Tuple count of the chosen table (join-order key of Algorithm 4).
  uint64_t rows = 0;
  // The statistics prove the whole BGP has no results (SF = 0 on a
  // required correlation, or a bound term absent from the dictionary).
  bool empty_result = false;
  // The pattern has an unbound predicate and scans the triples table.
  bool is_triples_table = false;
  // Selection had to substitute a superset table because its first
  // choice (or the VP table itself) is quarantined: ExtVP degrades to
  // the base VP table, a quarantined VP degrades to the triples table.
  // Results are identical (the substitutes are supersets whose extra
  // rows cannot satisfy the pattern's joins/selections); only
  // performance suffers. Counted as `queries_degraded` by the compiler.
  bool degraded = false;
  // kExtVpBitmap only: the intersection of all correlation bitmaps; the
  // scan reads `table_name` (a VP table) through this filter. Null when
  // no correlation reduces the table.
  std::shared_ptr<Bitmap> row_filter;
  // The intersected correlations, as "<corr>|<p2 id>" joined by "&".
  std::string row_filter_label;
  // An ExtVP choice's base VP table, which the scan reads instead when
  // the reduction cannot be loaded mid-query; empty for other choices.
  std::string fallback_table;
  // Layout family actually chosen ("VP", "ExtVP", "TT", "ExtVP-bitmap"),
  // carried into the plan for EXPLAIN ANALYZE.
  std::string layout_label = "VP";
};

// True when both positions are the same variable.
bool SameVar(const sparql::PatternTerm& a, const sparql::PatternTerm& b);

// One correlation of a triple pattern to another: whether the two share
// the variable it names, and which correlation it is.
struct CorrelationCase {
  bool applies;
  Correlation corr;
};

// The correlations of `tp` to `other`, in the fixed SS/SO/OS order
// Algorithm 1 examines them (OO is never precomputed) — the one
// enumeration table selection, the estimator and the lazy ExtVP mode
// share.
std::array<CorrelationCase, 3> CorrelationsTo(
    const sparql::TriplePattern& tp, const sparql::TriplePattern& other);

// A triple pattern's terms, resolved once per BGP against the
// dictionary and the query's catalog state: what Algorithm 1 and the
// estimator read for every pattern pair.
struct PatternIds {
  // The bound predicate's id; nullopt when the predicate is a variable,
  // absent from the dictionary, or a term with no VP table (one the data
  // uses only as a subject or object, or that a query minted): such a
  // pattern matches nothing.
  std::optional<rdf::TermId> predicate;
  // The bound predicate's VP entry in the state; null exactly when
  // `predicate` is nullopt.
  const storage::TableStats* vp = nullptr;
  // A bound subject or object is absent from the dictionary: the
  // pattern matches nothing.
  bool absent_term = false;
};

// One PatternIds per pattern of `bgp`.
std::vector<PatternIds> ResolveBgp(
    const std::vector<sparql::TriplePattern>& bgp,
    const rdf::Dictionary& dict, const storage::CatalogState& state);

// Runs Algorithm 1 for `bgp[tp_index]` (its position is used to skip
// self-correlation), reading statistics and quarantine from `state`
// only; `ids` is ResolveBgp(bgp, ...). When
// `use_statistics_shortcut` is false, empty correlations do not
// short-circuit the query (ablation switch). `bitmap_store` is required
// for (and only consulted by) Layout::kExtVpBitmap.
StatusOr<TableChoice> SelectTable(size_t tp_index,
                                  const std::vector<sparql::TriplePattern>& bgp,
                                  const std::vector<PatternIds>& ids,
                                  Layout layout, bool use_statistics_shortcut,
                                  const storage::CatalogState& state,
                                  const ExtVpBitmapStore* bitmap_store =
                                      nullptr);

}  // namespace s2rdf::core

#endif  // S2RDF_CORE_TABLE_SELECTION_H_
