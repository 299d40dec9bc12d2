#ifndef S2RDF_CORE_LAYOUTS_H_
#define S2RDF_CORE_LAYOUTS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/layout_names.h"
#include "rdf/graph.h"
#include "rdf/table.h"
#include "storage/catalog.h"

// Builders for the relational RDF layouts of Secs. 4 and 5:
// triples table (4.1), vertical partitioning (4.2), property tables
// (4.3) and the paper's contribution, ExtVP (5). Each builder registers
// its tables — and, crucially for ExtVP, the statistics of tables it
// decides *not* to materialize — in a storage::Catalog.

namespace s2rdf::core {

// --- Triples table (Sec. 4.1) -----------------------------------------

// Builds TT(s, p, o) and registers it as "triples".
Status BuildTriplesTable(const rdf::Graph& graph, storage::Catalog* catalog);

// --- Vertical partitioning (Sec. 4.2) ----------------------------------

// Builds VP_p(s, o) for every predicate p.
Status BuildVpLayout(const rdf::Graph& graph, storage::Catalog* catalog);

// --- ExtVP (Sec. 5) -----------------------------------------------------

struct ExtVpOptions {
  // Materialize only tables with SF < sf_threshold (Sec. 5.3). The
  // default 1.0 materializes every table with 0 < SF < 1, i.e. "no
  // threshold" in the paper's terminology (tables equal to VP are never
  // stored). All three correlations SS, OS and SO are precomputed; OO
  // never is.
  double sf_threshold = 1.0;
};

// What the store keeps of one reduction ExtVP^corr_p1|p2.
struct ExtVpVerdict {
  enum Kind {
    kEmpty,    // SF = 0: statistics only (the eager build records none).
    kEqualVp,  // SF = 1: statistics only; VP_p1 is scanned instead.
    kPruned,   // 0 < SF < 1 but SF >= the threshold: statistics only.
    kStored,   // 0 < SF < threshold: materialized.
  };
  Kind kind;
  // The SF its statistics record: 0, 1, or rows / |VP_p1|.
  double sf;
};

// The one materialization rule (Sec. 5.2–5.3), which the eager, bitmap,
// lazy and incremental builds all apply: a reduction keeping `rows` of
// VP_p1's `vp_rows` rows is stored iff 0 < SF < `sf_threshold`.
ExtVpVerdict ClassifyExtVp(uint64_t rows, uint64_t vp_rows,
                           double sf_threshold);

struct ExtVpBuildStats {
  // Number of (correlation, p1, p2) combinations examined.
  uint64_t tables_considered = 0;
  uint64_t tables_materialized = 0;
  uint64_t tables_empty = 0;     // SF = 0 (not stored; stats only).
  uint64_t tables_equal_vp = 0;  // SF = 1 (not stored; VP used instead).
  uint64_t tables_pruned = 0;    // 0 < SF < 1 but SF >= threshold.
  uint64_t tuples_materialized = 0;
  double build_seconds = 0.0;
};

// Builds the ExtVP semi-join reduction tables over an existing VP layout
// (BuildVpLayout, and no ExtVP build, must have run on `catalog`, whose VP
// tables it reads; `graph`'s dictionary sizes the term index): the
// paper's semi-joins, one per non-empty pair, by the per-pair kernel
// (core/extvp_kernel.h).
// Registers stats for every non-empty combination; materializes those
// within the threshold; registers kExtVpMarker. A combination with no
// stats entry is then empty (SF = 0) — the query compiler uses this for
// the statistics-only empty-result shortcut. The "pay as you go"
// alternative Sec. 7 sketches (S2RdfOptions::lazy_extvp) computes each
// reduction on first use instead, through core::CommitExtVpPairs.
StatusOr<ExtVpBuildStats> BuildExtVpLayout(const rdf::Graph& graph,
                                           const ExtVpOptions& options,
                                           storage::Catalog* catalog);

// --- Property tables (Sec. 4.3) -----------------------------------------

enum class PropertyTableStrategy {
  // Multi-valued predicates duplicate rows (cross product per subject),
  // exactly as in the paper's Table 1. Correct but can explode; used for
  // small graphs and for reproducing Fig. 7.
  kDuplication,
  // Multi-valued predicates are moved to auxiliary two-column tables and
  // joined back in — the other strategy Sec. 4.3 names. Bounded size;
  // used for the Sempala-analogue baseline at benchmark scale.
  kAuxiliaryTables,
};

struct PropertyTableBuildStats {
  uint64_t pt_rows = 0;
  uint64_t aux_tables = 0;
  uint64_t aux_tuples = 0;
  std::vector<rdf::TermId> single_valued;  // Predicates inline in the PT.
  std::vector<rdf::TermId> multi_valued;   // Predicates in aux tables.
};

// Builds the unified property table "pt" whose columns are "s" plus one
// column per inlined predicate (column name = VP table name of that
// predicate, so lookups are uniform). Missing values are kNullTermId.
StatusOr<PropertyTableBuildStats> BuildPropertyTable(
    const rdf::Graph& graph, PropertyTableStrategy strategy,
    storage::Catalog* catalog);

}  // namespace s2rdf::core

#endif  // S2RDF_CORE_LAYOUTS_H_
