#include "core/ingest.h"

#include <algorithm>
#include <charconv>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/layout_names.h"
#include "core/layouts.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/table.h"
#include "rdf/triple.h"

namespace s2rdf::core {

namespace {

using rdf::TermId;
using storage::TableUpdate;

uint64_t SoKey(TermId s, TermId o) {
  return (static_cast<uint64_t>(s) << 32) | o;
}

// The column names of VP and ExtVP tables.
std::vector<std::string> SoColumns() { return {"s", "o"}; }

// Row indices [begin, end): the rows an append adds.
std::vector<uint32_t> RowRange(size_t begin, size_t end) {
  std::vector<uint32_t> rows(end - begin);
  std::iota(rows.begin(), rows.end(), static_cast<uint32_t>(begin));
  return rows;
}

// A set of term ids as a bitset over [0, largest id]: term ids are dense,
// so any set of them — a VP column's join keys, a batch's subjects —
// fits in one bit per dictionary term. The last word is always zero, and
// an id past the set's range reads it: a probe takes no branch.
class TermSet {
 public:
  void Insert(TermId id) {
    const size_t word = id >> 6;
    if (word + 1 >= words_.size()) words_.resize(word + 2);
    words_[word] |= uint64_t{1} << (id & 63);
  }
  bool Contains(TermId id) const {
    const size_t word = std::min<size_t>(id >> 6, words_.size() - 1);
    return ((words_[word] >> (id & 63)) & 1) != 0;
  }

 private:
  std::vector<uint64_t> words_ = std::vector<uint64_t>(1);
};

// The VP tables of `state`, each loaded on first use. A quarantined or
// checksum-failing VP is reconstructed from the state's triples table —
// TT's (s, p, o) dedup restricted to one predicate is exactly
// CollectVpRows' per-predicate dedup, in the same first-appearance
// order, so the reconstruction is byte-identical to the lost table (and
// an ingest commit rewrites it, self-healing the quarantine).
class VpSource {
 public:
  // `tt` is the state's triples table when the caller holds it already;
  // null loads it when a VP table first fails to.
  VpSource(storage::Catalog* catalog, const storage::CatalogState& state,
           std::shared_ptr<const rdf::Table> tt)
      : catalog_(catalog), state_(state), tt_(std::move(tt)) {}

  // VP_p as an (s, o) table; empty when p has none.
  StatusOr<const rdf::Table*> Table(TermId p) {
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
  std::unordered_map<TermId, std::shared_ptr<const rdf::Table>> cache_;
};


// The per-pair ExtVP kernel: reduces single pairs against the catalog as
// of `state`, the VP tables read through `vp` plus a per-predicate
// delta of (s, o) rows appended after them. Ingest passes the batch as
// the delta; lazy first use passes none.
class DeltaMaintainer {
 public:
  DeltaMaintainer(const IngestConfig& config, storage::Catalog* catalog,
                  const storage::CatalogState& state, VpSource* vp,
                  const std::unordered_map<TermId, rdf::Table>* delta)
      : config_(config),
        catalog_(catalog),
        state_(state),
        vp_(vp),
        delta_(delta) {}

  std::vector<TableUpdate>& updates() { return updates_; }

  // Delta-maintains the pair: recomputes its rows (when it can gain) or
  // amends its SF denominator (when only VP_p1 grew), emitting at most
  // one TableUpdate, and none while the pair stays empty. `gain_possible`
  // is the affected-pair verdict; for pairs outside that set the row
  // count provably cannot change.
  Status MaintainPair(const ExtVpPair& pair, bool gain_possible) {
    const std::string name = ExtVpTableName(pair.corr, pair.p1, pair.p2);
    const storage::TableStats* old = state_.Find(name);
    if (config_.lazy_extvp && old == nullptr) {
      // "Pay as you go": uncomputed pairs stay uncomputed; their first
      // use builds them from the updated VP tables.
      return Status::Ok();
    }
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
        ClassifyExtVp(count, new_vp1_rows, config_.sf_threshold);
    // Still empty: a full rebuild registers nothing, so emit
    // nothing (a pre-existing zero entry stays as-is).
    if (verdict.kind == ExtVpVerdict::kEmpty) return Status::Ok();
    const bool stored = verdict.kind == ExtVpVerdict::kStored;
    TableUpdate update;
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

 private:
  const rdf::Table* DeltaOf(TermId p) const {
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
  StatusOr<const JoinKeys*> RightKeys(TermId p2, int right_col) {
    uint64_t cache_key = (static_cast<uint64_t>(p2) << 1) |
                         static_cast<uint64_t>(right_col);
    auto it = right_keys_.find(cache_key);
    if (it != right_keys_.end()) return it->second.get();
    S2RDF_ASSIGN_OR_RETURN(const rdf::Table* vp2, vp_->Table(p2));
    auto keys = std::make_unique<JoinKeys>();
    const TermId* column = vp2->ColumnData(right_col);
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

  // The rows of `from` that find a partner in VP_p2 (the pair's
  // semi-join), as ascending row indices in `(*rows)[0, count)`.
  StatusOr<size_t> Reduce(const rdf::Table& from, const ExtVpPair& pair,
                          std::vector<uint32_t>* rows) {
    const CorrelationRoles& roles = RolesOf(pair.corr);
    S2RDF_ASSIGN_OR_RETURN(const JoinKeys* keys,
                           RightKeys(pair.p2, roles.right));
    const TermId* column = from.ColumnData(roles.left);
    // Every row is written and only a match advances: no branch on it.
    if (rows->size() < from.NumRows()) rows->resize(from.NumRows());
    size_t count = 0;
    for (size_t r = 0; r < from.NumRows(); ++r) {
      (*rows)[count] = static_cast<uint32_t>(r);
      count += keys->all.Contains(column[r]) ? 1 : 0;
    }
    return count;
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
    // without one (lazy first use) the pair has no entry to trust.
    const bool trust_old_stats = !delta_->empty();

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
      const TermId* column = old_vp1->ColumnData(roles.left);
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

  const IngestConfig& config_;
  storage::Catalog* catalog_;
  const storage::CatalogState& state_;
  VpSource* vp_;
  const std::unordered_map<TermId, rdf::Table>* delta_;
  std::unordered_map<uint64_t, std::unique_ptr<JoinKeys>> right_keys_;
  // Reduce's row indices of parts 1 and 2, reused across pairs.
  std::vector<uint32_t> part1_rows_;
  std::vector<uint32_t> part2_rows_;
  std::vector<TableUpdate> updates_;
};

}  // namespace

StatusOr<storage::IngestResult> ApplyIngestBatch(
    const storage::IngestBatch& batch, const IngestConfig& config,
    rdf::Dictionary* dict, TermId* dict_committed,
    storage::Catalog* catalog) {
  auto start = MonotonicNow();
  storage::IngestResult result;
  result.triples_in_batch = batch.triples.size();
  // The batch reads every statistic and quarantine bit from one state.
  const std::shared_ptr<const storage::CatalogState> state = catalog->State();
  result.generation = state->generation;

  if (state->Find(TriplesTableName()) == nullptr) {
    return FailedPreconditionError("ingest requires the triples table");
  }
  S2RDF_ASSIGN_OR_RETURN(std::shared_ptr<const rdf::Table> old_tt,
                         catalog->GetTable(*state, TriplesTableName()));

  // Encode the batch; new terms are interned (and stored by the commit).
  std::vector<rdf::Triple> stream;
  stream.reserve(batch.triples.size());
  for (const storage::IngestTriple& t : batch.triples) {
    rdf::Triple encoded;
    encoded.subject = dict->Encode(t.subject);
    encoded.predicate = dict->Encode(t.predicate);
    encoded.object = dict->Encode(t.object);
    stream.push_back(encoded);
  }

  // Batch-internal dedup, keeping arrival order: candidate rows per
  // predicate under the same (s << 32 | o) key CollectVpRows uses. Each
  // term of a candidate gets a slot, found by id: term ids are dense,
  // and the dictionary bounds them.
  constexpr uint32_t kNoSlot = ~uint32_t{0};
  std::vector<uint32_t> slots(dict->size(), kNoSlot);
  uint32_t num_slots = 0;
  auto slot_of = [&](TermId id) {
    return id < slots.size() ? slots[id] : kNoSlot;
  };
  std::unordered_map<TermId, std::unordered_set<uint64_t>> candidate_keys;
  std::vector<rdf::Triple> candidates;
  TermSet subjects;
  for (const rdf::Triple& t : stream) {
    if (!candidate_keys[t.predicate].insert(SoKey(t.subject, t.object))
             .second) {
      continue;
    }
    candidates.push_back(t);
    subjects.Insert(t.subject);
    for (TermId id : {t.subject, t.object}) {
      if (slots[id] == kNoSlot) slots[id] = num_slots++;
    }
  }

  // One scan of the old triples table: drop candidates the store
  // already holds, and collect, per candidate term, the predicates whose
  // rows hold it — which enumerate the ExtVP pairs the batch can affect.
  // Only a row whose subject is a candidate's can repeat one.
  // preds_by_column[c][slot]: the predicates whose rows hold the slot's
  // term in column c (0 = s, 1 = o), sorted and distinct once the
  // delta is in.
  std::unordered_map<TermId, std::unordered_set<uint64_t>> existing_keys;
  std::vector<std::vector<TermId>> preds_by_column[2] = {
      std::vector<std::vector<TermId>>(num_slots),
      std::vector<std::vector<TermId>>(num_slots)};
  auto note = [&](int column, uint32_t slot, TermId p) {
    std::vector<TermId>& list = preds_by_column[column][slot];
    if (list.empty() || list.back() != p) list.push_back(p);
  };
  {
    const TermId* tt_s = old_tt->ColumnData(0);
    const TermId* tt_p = old_tt->ColumnData(1);
    const TermId* tt_o = old_tt->ColumnData(2);
    for (size_t r = 0; r < old_tt->NumRows(); ++r) {
      const TermId s = tt_s[r];
      const TermId p = tt_p[r];
      const TermId o = tt_o[r];
      if (const uint32_t slot = slot_of(s); slot != kNoSlot) note(0, slot, p);
      if (const uint32_t slot = slot_of(o); slot != kNoSlot) note(1, slot, p);
      if (subjects.Contains(s)) {
        auto ck = candidate_keys.find(p);
        if (ck != candidate_keys.end() && ck->second.contains(SoKey(s, o))) {
          existing_keys[p].insert(SoKey(s, o));
        }
      }
    }
  }

  // The surviving delta: per-predicate rows and the interleaved stream
  // (the triples table appends in arrival order, VP tables per
  // predicate — matching what CollectVpRows/BuildTriplesTable produce
  // over the concatenated stream).
  std::unordered_map<TermId, rdf::Table> delta;
  std::vector<TermId> delta_preds;
  std::vector<rdf::Triple> surviving;
  for (const rdf::Triple& t : candidates) {
    auto ex = existing_keys.find(t.predicate);
    if (ex != existing_keys.end() &&
        ex->second.contains(SoKey(t.subject, t.object))) {
      continue;
    }
    auto [it, inserted] = delta.try_emplace(t.predicate, SoColumns());
    if (inserted) delta_preds.push_back(t.predicate);
    it->second.AppendRow({t.subject, t.object});
    surviving.push_back(t);
    note(0, slots[t.subject], t.predicate);
    note(1, slots[t.object], t.predicate);
  }
  result.triples_added = surviving.size();
  if (surviving.empty()) {
    result.millis = MillisSince(start);
    return result;  // Fully duplicate batch: no generation committed.
  }
  for (std::vector<std::vector<TermId>>& column : preds_by_column) {
    for (std::vector<TermId>& list : column) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
  }
  VpSource old_vp(catalog, *state, old_tt);
  DeltaMaintainer maintainer(config, catalog, *state, &old_vp, &delta);

  // Triples-table and VP appends.
  {
    rdf::Table new_tt(old_tt->column_names());
    new_tt.Reserve(old_tt->NumRows() + surviving.size());
    new_tt.Append(*old_tt);
    for (const rdf::Triple& t : surviving) {
      new_tt.AppendRow({t.subject, t.predicate, t.object});
    }
    TableUpdate update;
    update.name = TriplesTableName();
    update.new_rows = RowRange(old_tt->NumRows(), new_tt.NumRows());
    update.table = std::move(new_tt);
    maintainer.updates().push_back(std::move(update));
  }
  for (TermId p : delta_preds) {
    S2RDF_ASSIGN_OR_RETURN(const rdf::Table* old_rows, old_vp.Table(p));
    const rdf::Table& added = delta.at(p);
    rdf::Table new_vp(SoColumns());
    new_vp.Reserve(old_rows->NumRows() + added.NumRows());
    new_vp.Append(*old_rows);
    new_vp.Append(added);
    TableUpdate update;
    update.name = VpTableName(p);
    update.new_rows = RowRange(old_rows->NumRows(), new_vp.NumRows());
    update.table = std::move(new_vp);
    maintainer.updates().push_back(std::move(update));
  }
  result.vp_tables_updated = delta_preds.size();

  if (state->Find(kExtVpMarker) != nullptr) {
    // Pairs that can gain rows: for every surviving row and
    // correlation, the partner predicates its terms join with, from both
    // the left (p1 gains the row) and the right (p1's old rows newly
    // match it) side of the pair.
    std::set<ExtVpPair> affected;
    auto add = [&](Correlation corr, TermId p1, TermId p2) {
      if (corr == Correlation::kSS && p1 == p2) return;
      affected.insert({corr, p1, p2});
    };
    for (TermId p : delta_preds) {
      const rdf::Table& rows = delta.at(p);
      for (size_t r = 0; r < rows.NumRows(); ++r) {
        const TermId cells[2] = {rows.At(r, 0), rows.At(r, 1)};
        for (const CorrelationRoles& roles : kCorrelationRoles) {
          for (TermId q :
               preds_by_column[roles.right][slots[cells[roles.left]]]) {
            add(roles.corr, p, q);
          }
          for (TermId q :
               preds_by_column[roles.left][slots[cells[roles.right]]]) {
            add(roles.corr, q, p);
          }
        }
      }
    }
    for (const ExtVpPair& pair : affected) {
      S2RDF_RETURN_IF_ERROR(
          maintainer.MaintainPair(pair, /*gain_possible=*/true));
    }
    // Every other pair whose left VP grew keeps its rows but sees a new
    // SF denominator (which can cross the materialization threshold in
    // either direction). Only a pair with an entry can change: walk the
    // state's entries named for each such p1.
    for (TermId p1 : delta_preds) {
      for (const CorrelationRoles& roles : kCorrelationRoles) {
        const std::string prefix = ExtVpTablePrefix(roles.corr, p1);
        for (auto it = state->stats.lower_bound(prefix);
             it != state->stats.end() && it->first.starts_with(prefix);
             ++it) {
          const std::string_view p2_digits =
              std::string_view(it->first).substr(prefix.size());
          TermId p2 = 0;
          const auto [end, error] = std::from_chars(
              p2_digits.data(), p2_digits.data() + p2_digits.size(), p2);
          if (error != std::errc() ||
              end != p2_digits.data() + p2_digits.size()) {
            continue;
          }
          const ExtVpPair pair{roles.corr, p1, p2};
          if (affected.contains(pair)) continue;
          S2RDF_RETURN_IF_ERROR(
              maintainer.MaintainPair(pair, /*gain_possible=*/false));
        }
      }
    }
    result.extvp_tables_updated =
        maintainer.updates().size() - 1 - delta_preds.size();
  }

  // The commit stores every term minted since the previous one: this
  // batch's, and any a query minted meanwhile that the batch reuses.
  const auto minted = static_cast<TermId>(dict->size());
  storage::CommitOptions commit;
  if (!catalog->dir().empty() && minted > *dict_committed) {
    commit.dictionary_blob = dict->Serialize(*dict_committed, minted);
  }
  const auto commit_start = MonotonicNow();
  storage::CommitReport report;
  S2RDF_RETURN_IF_ERROR(
      catalog->CommitBatch(std::move(maintainer.updates()), commit, &report));
  result.commit_millis = MillisSince(commit_start);
  result.bytes_written = report.bytes_written;
  result.tables_patched = report.tables_patched;
  result.tables_written_whole = report.tables_written_whole;
  *dict_committed = minted;
  result.generation = catalog->State()->generation;
  result.millis = MillisSince(start);
  return result;
}

Status StageExtVpPairs(const std::set<ExtVpPair>& pairs, double sf_threshold,
                       const storage::CatalogState& state,
                       storage::Catalog* catalog) {
  // Every pair asked for is computed: skipping uncomputed pairs is what
  // ingest does on a lazy store.
  const IngestConfig config{.sf_threshold = sf_threshold};
  VpSource current_vp(catalog, state, nullptr);
  const std::unordered_map<TermId, rdf::Table> no_delta;
  DeltaMaintainer maintainer(config, catalog, state, &current_vp, &no_delta);
  for (const ExtVpPair& pair : pairs) {
    const std::string name = ExtVpTableName(pair.corr, pair.p1, pair.p2);
    if (state.Find(name) != nullptr) continue;  // Computed already.
    const size_t emitted = maintainer.updates().size();
    S2RDF_RETURN_IF_ERROR(
        maintainer.MaintainPair(pair, /*gain_possible=*/true));
    if (maintainer.updates().size() == emitted) {
      // Empty. Unlike the eager build, a lazy store records it, with 0
      // rows: its entry is what marks the pair computed.
      catalog->PutStatsOnly(name, 0, 0.0);
    }
  }
  for (TableUpdate& update : maintainer.updates()) {
    if (update.table.has_value()) {
      S2RDF_RETURN_IF_ERROR(catalog->Put(
          update.name, std::move(*update.table), update.selectivity));
    } else {
      catalog->PutStatsOnly(update.name, update.rows, update.selectivity);
    }
  }
  return Status::Ok();
}

StatusOr<storage::IngestBatch> MakeBatchFromNTriples(std::string_view text) {
  rdf::Graph graph;
  S2RDF_RETURN_IF_ERROR(rdf::ParseNTriples(text, &graph));
  storage::IngestBatch batch;
  batch.triples.reserve(graph.NumTriples());
  const rdf::Dictionary& dict = graph.dictionary();
  for (const rdf::Triple& t : graph.triples()) {
    batch.triples.push_back({dict.Decode(t.subject), dict.Decode(t.predicate),
                             dict.Decode(t.object)});
  }
  return batch;
}

}  // namespace s2rdf::core
