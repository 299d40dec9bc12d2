#include "core/extvp_bitmap.h"

#include <unordered_map>
#include <vector>

namespace s2rdf::core {

namespace {
using rdf::TermId;
}  // namespace

StatusOr<std::unique_ptr<ExtVpBitmapStore>> ExtVpBitmapStore::Build(
    const rdf::Graph& graph, const ExtVpOptions& options) {
  auto store = std::unique_ptr<ExtVpBitmapStore>(new ExtVpBitmapStore());

  VpRowData vp = CollectVpRows(graph);
  const size_t k = vp.predicates.size();
  for (TermId p : vp.predicates) {
    store->vp_rows_[p] = vp.rows[p].size();
  }

  // term -> distinct predicate indices with the term as subject/object
  // (same single-pass scheme as the table builder in layouts.cc).
  std::unordered_map<TermId, std::vector<uint32_t>> subject_preds;
  std::unordered_map<TermId, std::vector<uint32_t>> object_preds;
  for (size_t i = 0; i < k; ++i) {
    for (const auto& [s, o] : vp.rows[vp.predicates[i]]) {
      auto& sp = subject_preds[s];
      if (sp.empty() || sp.back() != i) sp.push_back(static_cast<uint32_t>(i));
      auto& op = object_preds[o];
      if (op.empty() || op.back() != i) op.push_back(static_cast<uint32_t>(i));
    }
  }

  // One pass: set bit `row` of bitmap (corr, p1, p2) whenever row `row`
  // of VP_p1 survives the semi-join against VP_p2.
  auto bitmap_for = [&](Correlation corr, TermId p1, TermId p2,
                        size_t domain) -> Bitmap& {
    uint64_t key = Key(corr, p1, p2);
    auto it = store->bitmaps_.find(key);
    if (it == store->bitmaps_.end()) {
      it = store->bitmaps_.emplace(key, Bitmap(domain)).first;
    }
    return it->second;
  };

  for (size_t i1 = 0; i1 < k; ++i1) {
    TermId p1 = vp.predicates[i1];
    const auto& rows = vp.rows[p1];
    for (size_t row = 0; row < rows.size(); ++row) {
      const auto& [s, o] = rows[row];
      for (uint32_t i2 : subject_preds[s]) {
        if (i2 == i1) continue;
        bitmap_for(Correlation::kSS, p1, vp.predicates[i2], rows.size())
            .Set(row);
      }
      if (auto it = subject_preds.find(o); it != subject_preds.end()) {
        for (uint32_t i2 : it->second) {
          bitmap_for(Correlation::kOS, p1, vp.predicates[i2], rows.size())
              .Set(row);
        }
      }
      if (auto it = object_preds.find(s); it != object_preds.end()) {
        for (uint32_t i2 : it->second) {
          bitmap_for(Correlation::kSO, p1, vp.predicates[i2], rows.size())
              .Set(row);
        }
      }
    }
  }

  // Post-pass: record SFs; drop bitmaps with SF = 1 (the VP table
  // itself) and those pruned by the threshold. Note that unlike the
  // table representation, a pruned bitmap costs nothing at query time —
  // we still drop it to honor the configured storage budget.
  for (auto it = store->bitmaps_.begin(); it != store->bitmaps_.end();) {
    uint64_t set = it->second.CountSetBits();
    double sf =
        static_cast<double>(set) / static_cast<double>(it->second.size_bits());
    store->known_sf_[it->first] = sf;
    if (set == it->second.size_bits() || sf >= options.sf_threshold) {
      it = store->bitmaps_.erase(it);
    } else {
      ++it;
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

uint64_t ExtVpBitmapStore::VpRows(TermId p) const {
  auto it = vp_rows_.find(p);
  return it == vp_rows_.end() ? 0 : it->second;
}

uint64_t ExtVpBitmapStore::TotalBitmapBytes() const {
  uint64_t total = 0;
  for (const auto& [key, bitmap] : bitmaps_) total += bitmap.ByteSize();
  return total;
}

}  // namespace s2rdf::core
