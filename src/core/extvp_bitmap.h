#ifndef S2RDF_CORE_EXTVP_BITMAP_H_
#define S2RDF_CORE_EXTVP_BITMAP_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/bitmap.h"
#include "common/status.h"
#include "core/layout_names.h"
#include "storage/catalog.h"

// Bit-vector representation of ExtVP — the paper's future work (Sec. 8):
// instead of materializing each semi-join reduction ExtVP_corr_p1|p2 as
// its own (s, o) table, store one bitmap over the rows of VP_p1 marking
// the surviving rows. This shrinks the ExtVP overhead from O(tuples) to
// O(bits) and, because bitmaps over the same VP table compose with
// bitwise AND, enables the paper's proposed "unification strategy": a
// triple pattern with several correlations is answered by the
// *intersection* of all of them, which can be strictly more selective
// than the single best ExtVP table Algorithm 1 picks.
//
// A bitmap depends only on VP_p1, VP_p2 and the SF threshold, so the
// store is derived, never maintained: Build reads one catalog state, and
// each bitmap marks the surviving row indices the per-pair ExtVP kernel
// (core/extvp_kernel.h) finds in that state's VP_p1 table — the very
// table a query over the same state filters — so the bitmaps match the
// VP tables row for row by construction. The store keeps the same
// reductions (ClassifyExtVp) as the table builder. core::S2Rdf builds
// one for each catalog state a Layout::kExtVpBitmap query reads, so the
// layout is right after every ingest batch and lazy commit, and on a
// reopened store.

namespace s2rdf::core {

class ExtVpBitmapStore {
 public:
  // Builds bitmaps over the VP tables of `state`, a state of `catalog`,
  // for every combination with 0 < SF < 1 (and SF below
  // `sf_threshold`), as BuildExtVpLayout builds tables. Combinations with
  // SF = 1 are represented implicitly (the full VP table); empty
  // combinations are recorded so the statistics shortcut still works.
  static StatusOr<std::unique_ptr<ExtVpBitmapStore>> Build(
      double sf_threshold, const storage::CatalogState& state,
      storage::Catalog* catalog);

  // The bitmap for (corr, p1, p2); nullptr when not stored (empty,
  // SF = 1, pruned by threshold, or unknown pair).
  const Bitmap* Get(Correlation corr, rdf::TermId p1, rdf::TermId p2) const;

  // True when the combination is known-empty (SF = 0): every join using
  // this correlation has an empty result.
  bool IsEmpty(Correlation corr, rdf::TermId p1, rdf::TermId p2) const;

  // Selectivity factor of the combination: bits set / |VP_p1|, 1.0 when
  // not stored but non-empty, 0.0 when empty.
  double Sf(Correlation corr, rdf::TermId p1, rdf::TermId p2) const;

  // Storage accounting.
  uint64_t TotalBitmapBytes() const;
  size_t NumBitmaps() const { return bitmaps_.size(); }

 private:
  ExtVpBitmapStore() = default;

  static uint64_t Key(Correlation corr, rdf::TermId p1, rdf::TermId p2) {
    return (static_cast<uint64_t>(corr) << 62) |
           (static_cast<uint64_t>(p1) << 31) | p2;
  }

  std::unordered_map<uint64_t, Bitmap> bitmaps_;
  // Non-empty combinations (superset of bitmaps_; includes SF = 1 and
  // threshold-pruned pairs). Value: SF.
  std::unordered_map<uint64_t, double> known_sf_;
};

}  // namespace s2rdf::core

#endif  // S2RDF_CORE_EXTVP_BITMAP_H_
