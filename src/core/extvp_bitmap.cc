#include "core/extvp_bitmap.h"

#include <vector>

#include "core/extvp_kernel.h"

namespace s2rdf::core {

namespace {
using rdf::TermId;
}  // namespace

StatusOr<std::unique_ptr<ExtVpBitmapStore>> ExtVpBitmapStore::Build(
    double sf_threshold, const storage::CatalogState& state,
    storage::Catalog* catalog) {
  auto store = std::unique_ptr<ExtVpBitmapStore>(new ExtVpBitmapStore());
  VpSource vp(catalog, state, nullptr);
  S2RDF_ASSIGN_OR_RETURN(const std::vector<ExtVpPair> pairs,
                         NonEmptyExtVpPairs(VpPredicates(state), &vp));
  DeltaMaintainer kernel(sf_threshold, catalog, state, &vp, nullptr);
  std::vector<uint32_t> rows;
  for (const ExtVpPair& pair : pairs) {
    S2RDF_ASSIGN_OR_RETURN(const rdf::Table* vp1, vp.Table(pair.p1));
    S2RDF_ASSIGN_OR_RETURN(const size_t count,
                           kernel.Reduce(*vp1, pair, &rows));
    const ExtVpVerdict verdict =
        ClassifyExtVp(count, vp1->NumRows(), sf_threshold);
    if (verdict.kind == ExtVpVerdict::kEmpty) continue;
    const uint64_t key = Key(pair.corr, pair.p1, pair.p2);
    store->known_sf_[key] = verdict.sf;
    // Only what the table builder would store gets a bitmap: a pruned one
    // is dropped to honor the configured storage budget.
    if (verdict.kind != ExtVpVerdict::kStored) continue;
    Bitmap bitmap(vp1->NumRows());
    for (size_t i = 0; i < count; ++i) bitmap.Set(rows[i]);
    store->bitmaps_.emplace(key, std::move(bitmap));
  }
  return store;
}

const Bitmap* ExtVpBitmapStore::Get(Correlation corr, TermId p1,
                                    TermId p2) const {
  auto it = bitmaps_.find(Key(corr, p1, p2));
  return it == bitmaps_.end() ? nullptr : &it->second;
}

bool ExtVpBitmapStore::IsEmpty(Correlation corr, TermId p1,
                               TermId p2) const {
  if (corr == Correlation::kSS && p1 == p2) return false;
  // Both predicates must exist for the combination to be meaningful;
  // unknown predicates are handled by the dictionary check upstream.
  return !known_sf_.contains(Key(corr, p1, p2));
}

double ExtVpBitmapStore::Sf(Correlation corr, TermId p1, TermId p2) const {
  auto it = known_sf_.find(Key(corr, p1, p2));
  if (it == known_sf_.end()) return IsEmpty(corr, p1, p2) ? 0.0 : 1.0;
  return it->second;
}

uint64_t ExtVpBitmapStore::TotalBitmapBytes() const {
  uint64_t total = 0;
  for (const auto& [key, bitmap] : bitmaps_) total += bitmap.ByteSize();
  return total;
}

}  // namespace s2rdf::core
