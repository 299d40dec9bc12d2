#include "core/extvp_bitmap.h"

namespace s2rdf::core {

namespace {
using rdf::TermId;
}  // namespace

StatusOr<std::unique_ptr<ExtVpBitmapStore>> ExtVpBitmapStore::Build(
    const rdf::Graph& graph, const ExtVpOptions& options) {
  auto store = std::unique_ptr<ExtVpBitmapStore>(new ExtVpBitmapStore());
  const VpRowData vp = CollectVpRows(graph);

  // One sweep: set bit `r` of bitmap (corr, p1, p2) whenever row `r` of
  // VP_p1 survives the semi-join against VP_p2.
  ExtVpSweep(vp).ForEach(
      [&](Correlation corr, uint32_t i1, uint32_t i2, size_t r) {
        const uint64_t key = Key(corr, vp.predicates[i1], vp.predicates[i2]);
        auto it = store->bitmaps_.find(key);
        if (it == store->bitmaps_.end()) {
          it = store->bitmaps_.emplace(key, Bitmap(vp.rows[i1].size())).first;
        }
        it->second.Set(r);
      });

  // Post-pass: record SFs; keep only the bitmaps of reductions the table
  // builder would store. A pruned bitmap would cost nothing at query
  // time, but it is dropped to honor the configured storage budget.
  for (auto it = store->bitmaps_.begin(); it != store->bitmaps_.end();) {
    const ExtVpVerdict verdict =
        ClassifyExtVp(it->second.CountSetBits(), it->second.size_bits(),
                      options.sf_threshold);
    store->known_sf_[it->first] = verdict.sf;
    if (verdict.kind == ExtVpVerdict::kStored) {
      ++it;
    } else {
      it = store->bitmaps_.erase(it);
    }
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
