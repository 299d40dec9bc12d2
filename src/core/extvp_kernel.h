#ifndef S2RDF_CORE_EXTVP_KERNEL_H_
#define S2RDF_CORE_EXTVP_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/layout_names.h"
#include "core/layouts.h"
#include "rdf/table.h"
#include "storage/catalog.h"

// The one ExtVP kernel: the semi-join ExtVP^corr_p1|p2 = VP_p1 ⋉ VP_p2
// of Sec. 5.2, one pair at a time, as the paper builds it (Sec. 6.1).
// The eager builder (BuildExtVpLayout) and the bitmap store reduce every
// pair NonEmptyExtVpPairs lists, lazy first use (CommitExtVpPairs) the
// pairs a query asks for, and ingest (ApplyIngestBatch) the pairs a
// batch can change, with the batch as a delta. Every key set it probes
// is a bitset over the dense term ids; it reads VP tables as the catalog
// hands them out and emits rows in VP_p1's order, so a stored reduction
// (and a bitmap over VP_p1) matches the VP table row for row.

namespace s2rdf::core {

// The column names of VP and ExtVP tables.
inline std::vector<std::string> SoColumns() { return {"s", "o"}; }

// A set of term ids as a bitset over [0, largest id]: term ids are dense,
// so any set of them — a VP column's join keys, a batch's subjects —
// fits in one bit per dictionary term. The last word is always zero, and
// an id past the set's range reads it: a probe takes no branch.
class TermSet {
 public:
  void Insert(rdf::TermId id) {
    const size_t word = id >> 6;
    if (word + 1 >= words_.size()) words_.resize(word + 2);
    words_[word] |= uint64_t{1} << (id & 63);
  }
  bool Contains(rdf::TermId id) const {
    const size_t word = std::min<size_t>(id >> 6, words_.size() - 1);
    return ((words_[word] >> (id & 63)) & 1) != 0;
  }

 private:
  std::vector<uint64_t> words_ = std::vector<uint64_t>(1);
};

// The VP tables of `state`, each loaded on first use. A quarantined or
// checksum-failing VP is reconstructed from the state's triples table —
// TT's (s, p, o) dedup restricted to one predicate is exactly the VP
// builder's per-predicate dedup, in the same first-appearance order, so
// the reconstruction is byte-identical to the lost table (and an ingest
// commit rewrites it, self-healing the quarantine).
class VpSource {
 public:
  // `tt` is the state's triples table when the caller holds it already;
  // null loads it when a VP table first fails to. `catalog` and `state`
  // must outlive the source.
  VpSource(storage::Catalog* catalog, const storage::CatalogState& state,
           std::shared_ptr<const rdf::Table> tt)
      : catalog_(catalog), state_(state), tt_(std::move(tt)) {}

  // VP_p as an (s, o) table; empty when p has none.
  StatusOr<const rdf::Table*> Table(rdf::TermId p) {
    auto it = cache_.find(p);
    if (it != cache_.end()) return it->second.get();
    std::shared_ptr<const rdf::Table> table;
    const std::string name = VpTableName(p);
    if (state_.Find(name) != nullptr) {
      auto table_or = catalog_->GetTable(state_, name);
      if (table_or.ok()) {
        table = std::move(*table_or);
      } else {
        if (tt_ == nullptr) {
          S2RDF_ASSIGN_OR_RETURN(
              tt_, catalog_->GetTable(state_, TriplesTableName()));
        }
        auto rebuilt = std::make_shared<rdf::Table>(SoColumns());
        for (size_t r = 0; r < tt_->NumRows(); ++r) {
          if (tt_->At(r, 1) != p) continue;
          rebuilt->AppendRow({tt_->At(r, 0), tt_->At(r, 2)});
        }
        table = std::move(rebuilt);
      }
    } else {
      table = std::make_shared<rdf::Table>(SoColumns());
    }
    const rdf::Table* out = table.get();
    cache_.emplace(p, std::move(table));
    return out;
  }

 private:
  storage::Catalog* catalog_;
  const storage::CatalogState& state_;
  std::shared_ptr<const rdf::Table> tt_;
  std::unordered_map<rdf::TermId, std::shared_ptr<const rdf::Table>> cache_;
};

// The predicates that have a VP table in `state`.
inline std::vector<rdf::TermId> VpPredicates(
    const storage::CatalogState& state) {
  std::vector<rdf::TermId> predicates;
  for (auto it = state.stats.lower_bound(kVpTablePrefix);
       it != state.stats.end() && it->first.starts_with(kVpTablePrefix);
       ++it) {
    if (std::optional<rdf::TermId> p = IdAfter(kVpTablePrefix, it->first)) {
      predicates.push_back(*p);
    }
  }
  return predicates;
}

// The reductions over the VP tables of `predicates` that keep at least
// one row, each once: a term -> predicates index per column (sized for
// `num_terms` term ids), then one walk of each VP_p1 per correlation,
// which lists every partner p2 its join column meets. The rest of the
// k^2 combinations per correlation are empty.
inline StatusOr<std::vector<ExtVpPair>> NonEmptyExtVpPairs(
    const std::vector<rdf::TermId>& predicates, size_t num_terms,
    VpSource* vp) {
  const auto k = static_cast<uint32_t>(predicates.size());
  std::vector<const rdf::Table*> tables(k);
  // by_column[c][t]: the indices into `predicates`, ascending, of the VP
  // tables that hold term t in column c (0 = s, 1 = o).
  using Index = std::vector<std::vector<uint32_t>>;
  Index by_column[2] = {Index(num_terms), Index(num_terms)};
  for (uint32_t i = 0; i < k; ++i) {
    S2RDF_ASSIGN_OR_RETURN(tables[i], vp->Table(predicates[i]));
    for (int c = 0; c < 2; ++c) {
      Index& index = by_column[c];
      const rdf::TermId* column = tables[i]->ColumnData(c);
      for (size_t r = 0; r < tables[i]->NumRows(); ++r) {
        if (column[r] >= index.size()) index.resize(column[r] + 1);
        std::vector<uint32_t>& list = index[column[r]];
        if (list.empty() || list.back() != i) list.push_back(i);
      }
    }
  }
  // stamp[i2] is the walk that last listed predicates[i2], so each walk
  // lists a partner once.
  std::vector<ExtVpPair> pairs;
  std::vector<uint64_t> stamp(k, 0);
  uint64_t walk = 0;
  for (uint32_t i1 = 0; i1 < k; ++i1) {
    for (const CorrelationRoles& roles : kCorrelationRoles) {
      ++walk;
      // SS with itself is VP_p1.
      if (roles.corr == Correlation::kSS) stamp[i1] = walk;
      const Index& index = by_column[roles.right];
      const rdf::TermId* column = tables[i1]->ColumnData(roles.left);
      for (size_t r = 0; r < tables[i1]->NumRows(); ++r) {
        if (column[r] >= index.size()) continue;
        for (uint32_t i2 : index[column[r]]) {
          if (stamp[i2] == walk) continue;
          stamp[i2] = walk;
          pairs.push_back({roles.corr, predicates[i1], predicates[i2]});
        }
      }
    }
  }
  return pairs;
}

// Reduces single pairs against the catalog as of `state`: the VP tables
// read through `vp`, plus a per-predicate delta of (s, o) rows appended
// after them (ingest passes the batch; the other paths pass none).
class DeltaMaintainer {
 public:
  // `vp`, `state` and a non-null `delta` must outlive the kernel.
  DeltaMaintainer(double sf_threshold, storage::Catalog* catalog,
                  const storage::CatalogState& state, VpSource* vp,
                  const std::unordered_map<rdf::TermId, rdf::Table>* delta)
      : sf_threshold_(sf_threshold),
        catalog_(catalog),
        state_(state),
        vp_(vp),
        delta_(delta) {}

  // The updates MaintainPair emitted, in order.
  std::vector<storage::TableUpdate>& updates() { return updates_; }

  // Computes the pair as of VP_p1 ++ delta and emits at most one
  // TableUpdate for it — stored or statistics-only by ClassifyExtVp at
  // the kernel's threshold — and none while the pair is empty or its
  // `state` entry is unchanged. It recomputes the rows when
  // `gain_possible`, and otherwise (the pair's row count provably cannot
  // change) only amends the entry's SF denominator. With no delta and no
  // entry it is a plain semi-join of VP_p1 against VP_p2's key set.
  Status MaintainPair(const ExtVpPair& pair, bool gain_possible) {
    const std::string name = ExtVpTableName(pair.corr, pair.p1, pair.p2);
    const storage::TableStats* old = state_.Find(name);
    S2RDF_ASSIGN_OR_RETURN(const rdf::Table* old_vp1, vp_->Table(pair.p1));
    const rdf::Table* delta_p1 = DeltaOf(pair.p1);
    const uint64_t new_vp1_rows =
        old_vp1->NumRows() + (delta_p1 != nullptr ? delta_p1->NumRows() : 0);
    if (new_vp1_rows == 0) return Status::Ok();

    uint64_t count;
    std::optional<Rows> rows;  // Computed only when it can gain.
    if (gain_possible) {
      S2RDF_ASSIGN_OR_RETURN(rows, ComputeRows(name, old, pair));
      count = rows->table.NumRows();
    } else {
      if (old == nullptr || old->rows == 0) return Status::Ok();
      count = old->rows;
    }

    const ExtVpVerdict verdict =
        ClassifyExtVp(count, new_vp1_rows, sf_threshold_);
    // Still empty: the eager build registers nothing, so emit nothing (a
    // pre-existing zero entry stays as-is).
    if (verdict.kind == ExtVpVerdict::kEmpty) return Status::Ok();
    const bool stored = verdict.kind == ExtVpVerdict::kStored;
    storage::TableUpdate update;
    update.name = name;
    update.selectivity = verdict.sf;
    if (old != nullptr && old->rows == count) {
      if (old->selectivity == verdict.sf && old->materialized == stored) {
        return Status::Ok();  // Bit-for-bit unchanged.
      }
      if (old->materialized && stored) {
        // Row set untouched, only the SF denominator moved: amend the
        // stats and keep the existing file.
        update.rows = count;
        update.retain_table = true;
        updates_.push_back(std::move(update));
        return Status::Ok();
      }
    }
    if (stored) {
      if (!rows.has_value()) {
        S2RDF_ASSIGN_OR_RETURN(rows, ComputeRows(name, old, pair));
      }
      update.table = std::move(rows->table);
      update.new_rows = std::move(rows->added);
    } else {
      update.rows = count;  // SF = 1 or pruned: statistics only.
    }
    updates_.push_back(std::move(update));
    return Status::Ok();
  }

  // The rows of `from` (VP_p1, or its delta) that find a partner in the
  // pair's VP_p2 (with its delta), as ascending row indices in
  // `(*rows)[0, count)`; returns count.
  StatusOr<size_t> Reduce(const rdf::Table& from, const ExtVpPair& pair,
                          std::vector<uint32_t>* rows) {
    const CorrelationRoles& roles = RolesOf(pair.corr);
    S2RDF_ASSIGN_OR_RETURN(const JoinKeys* keys,
                           RightKeys(pair.p2, roles.right));
    const rdf::TermId* column = from.ColumnData(roles.left);
    // Every row is written and only a match advances: no branch on it.
    if (rows->size() < from.NumRows()) rows->resize(from.NumRows());
    size_t count = 0;
    for (size_t r = 0; r < from.NumRows(); ++r) {
      (*rows)[count] = static_cast<uint32_t>(r);
      count += keys->all.Contains(column[r]) ? 1 : 0;
    }
    return count;
  }

 private:
  const rdf::Table* DeltaOf(rdf::TermId p) const {
    if (delta_ == nullptr) return nullptr;
    auto it = delta_->find(p);
    return it == delta_->end() ? nullptr : &it->second;
  }

  // The join keys of the updated VP_p2's `right_col` (`all`), and those
  // of them the old VP_p2 lacks, which the delta added (`added`).
  struct JoinKeys {
    TermSet all;
    TermSet added;
  };

  // The join keys of VP_p2's `right_col`, cached per (predicate, column).
  StatusOr<const JoinKeys*> RightKeys(rdf::TermId p2, int right_col) {
    uint64_t cache_key = (static_cast<uint64_t>(p2) << 1) |
                         static_cast<uint64_t>(right_col);
    auto it = right_keys_.find(cache_key);
    if (it != right_keys_.end()) return it->second.get();
    S2RDF_ASSIGN_OR_RETURN(const rdf::Table* vp2, vp_->Table(p2));
    auto keys = std::make_unique<JoinKeys>();
    const rdf::TermId* column = vp2->ColumnData(right_col);
    for (size_t r = 0; r < vp2->NumRows(); ++r) keys->all.Insert(column[r]);
    if (const rdf::Table* delta = DeltaOf(p2); delta != nullptr) {
      column = delta->ColumnData(right_col);
      for (size_t r = 0; r < delta->NumRows(); ++r) {
        if (keys->all.Contains(column[r])) continue;
        keys->added.Insert(column[r]);
        keys->all.Insert(column[r]);
      }
    }
    const JoinKeys* out = keys.get();
    right_keys_.emplace(cache_key, std::move(keys));
    return out;
  }

  // The pair's full (s, o) table, and the ascending indices of its rows
  // that the pair's current reduction lacks.
  struct Rows {
    rdf::Table table;
    std::vector<uint32_t> added;
  };

  // Recomputes the pair's full (s, o) table in the updated VP_p1's row
  // order: the surviving pre-batch rows first (part 1), then the
  // surviving batch rows (part 2) — exactly the order a from-scratch
  // rebuild over the concatenated triple stream emits. The table is
  // sized once, to its rows. Its rows the current reduction lacks are
  // part 1's retro-gains — old VP_p1 rows whose join key the batch added
  // to VP_p2, anywhere among the old rows — and every row of part 2.
  StatusOr<Rows> ComputeRows(const std::string& name,
                             const storage::TableStats* old,
                             const ExtVpPair& pair) {
    S2RDF_ASSIGN_OR_RETURN(const rdf::Table* old_vp1, vp_->Table(pair.p1));
    const rdf::Table* delta_p1 = DeltaOf(pair.p1);
    const rdf::Table* delta_p2 = DeltaOf(pair.p2);
    const bool right_may_grow = delta_p2 != nullptr && delta_p2->NumRows() > 0;
    // With a delta (ingest) the catalog's stats describe the old VP
    // tables exactly, so the pair's entry can stand in for its old rows;
    // without one the pair has no entry to trust.
    const bool trust_old_stats = delta_ != nullptr && !delta_->empty();

    // Part 1 — pre-batch VP_p1 rows that (still or newly) match: a whole
    // table, or the matching rows of VP_p1. The join-key set only ever
    // grows, so matches are monotone: an SF = 1 pair keeps all rows, and
    // when VP_p2 gained nothing the old materialized reduction *is* part
    // 1 verbatim.
    const rdf::Table* whole = nullptr;
    std::shared_ptr<const rdf::Table> old_reduction;
    bool reduce_old = false;
    if (old != nullptr && old->rows == old_vp1->NumRows() && old->rows > 0) {
      whole = old_vp1;
    } else if (trust_old_stats && !right_may_grow &&
               (old == nullptr || old->rows == 0)) {
      // Nothing matched before and the key set is unchanged.
    } else if (trust_old_stats && !right_may_grow && old != nullptr &&
               old->materialized) {
      auto table_or = catalog_->GetTable(state_, name);
      if (table_or.ok()) {
        old_reduction = std::move(*table_or);
        whole = old_reduction.get();
      } else {
        reduce_old = true;
      }
    } else {
      reduce_old = true;
    }
    size_t part1 = whole != nullptr ? whole->NumRows() : 0;
    if (reduce_old) {
      S2RDF_ASSIGN_OR_RETURN(part1, Reduce(*old_vp1, pair, &part1_rows_));
    }
    // Part 2 — the batch's VP_p1 rows that match.
    size_t part2 = 0;
    if (delta_p1 != nullptr && delta_p1->NumRows() > 0) {
      S2RDF_ASSIGN_OR_RETURN(part2, Reduce(*delta_p1, pair, &part2_rows_));
    }

    Rows out{rdf::Table(SoColumns()), {}};
    out.table.Reserve(part1 + part2);
    if (whole != nullptr) {
      out.table.Append(*whole);
    } else if (reduce_old) {
      out.table.AppendGather(*old_vp1, {0, 1}, part1_rows_.data(), part1);
    }
    if (reduce_old && right_may_grow) {
      const CorrelationRoles& roles = RolesOf(pair.corr);
      S2RDF_ASSIGN_OR_RETURN(const JoinKeys* keys,
                             RightKeys(pair.p2, roles.right));
      const rdf::TermId* column = old_vp1->ColumnData(roles.left);
      for (size_t i = 0; i < part1; ++i) {
        if (keys->added.Contains(column[part1_rows_[i]])) {
          out.added.push_back(static_cast<uint32_t>(i));
        }
      }
    }
    if (part2 > 0) {
      out.table.AppendGather(*delta_p1, {0, 1}, part2_rows_.data(), part2);
      for (size_t i = part1; i < part1 + part2; ++i) {
        out.added.push_back(static_cast<uint32_t>(i));
      }
    }
    return out;
  }

  const double sf_threshold_;
  storage::Catalog* catalog_;
  const storage::CatalogState& state_;
  VpSource* vp_;
  const std::unordered_map<rdf::TermId, rdf::Table>* delta_;
  std::unordered_map<uint64_t, std::unique_ptr<JoinKeys>> right_keys_;
  // Reduce's row indices of parts 1 and 2, reused across pairs.
  std::vector<uint32_t> part1_rows_;
  std::vector<uint32_t> part2_rows_;
  std::vector<storage::TableUpdate> updates_;
};

}  // namespace s2rdf::core

#endif  // S2RDF_CORE_EXTVP_KERNEL_H_
