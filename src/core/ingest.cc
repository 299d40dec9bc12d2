#include "core/ingest.h"

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/layout_names.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/table.h"
#include "rdf/triple.h"

namespace s2rdf::core {

namespace {

using rdf::TermId;
using storage::TableUpdate;

using VpRows = std::vector<std::pair<TermId, TermId>>;

constexpr int kNumCorrelations = 3;
constexpr Correlation kCorrelations[kNumCorrelations] = {
    Correlation::kSS, Correlation::kOS, Correlation::kSO};

// Column roles per correlation, identical to MaterializeExtVpPair:
// reduce VP_p1's `left` column by VP_p2's `right` column.
struct CorrCols {
  int left;
  int right;
};

CorrCols CorrColumns(Correlation corr) {
  switch (corr) {
    case Correlation::kSS:
      return {0, 0};
    case Correlation::kOS:
      return {1, 0};
    case Correlation::kSO:
      return {0, 1};
  }
  return {0, 0};
}

uint64_t SoKey(TermId s, TermId o) {
  return (static_cast<uint64_t>(s) << 32) | o;
}

// Pair identity for the affected-pair set: (correlation index, p1, p2).
using PairId = std::tuple<int, TermId, TermId>;

// Lazily loaded (s, o) row lists of the *pre-batch* VP tables, read as
// of `state`. A
// quarantined or checksum-failing VP is reconstructed from the old
// triples table — TT's (s, p, o) dedup restricted to one predicate is
// exactly CollectVpRows' per-predicate dedup, in the same
// first-appearance order, so the reconstruction is byte-identical to
// the lost table (and the batch commit rewrites it, self-healing the
// quarantine).
class OldVpSource {
 public:
  OldVpSource(storage::Catalog* catalog, const storage::CatalogState& state,
              const rdf::Table* old_tt)
      : catalog_(catalog), state_(state), old_tt_(old_tt) {}

  const VpRows& Rows(TermId p) {
    auto it = cache_.find(p);
    if (it != cache_.end()) return *it->second;
    auto rows = std::make_unique<VpRows>();
    const std::string name = VpTableName(p);
    const bool exists = state_.Find(name) != nullptr;
    bool loaded = false;
    if (exists && !state_.quarantined.contains(name)) {
      auto table_or = catalog_->GetTable(state_, name);
      if (table_or.ok()) {
        const rdf::Table& t = *table_or.value();
        rows->reserve(t.NumRows());
        for (size_t r = 0; r < t.NumRows(); ++r) {
          rows->emplace_back(t.At(r, 0), t.At(r, 1));
        }
        loaded = true;
      }
    }
    if (!loaded && exists) {
      for (size_t r = 0; r < old_tt_->NumRows(); ++r) {
        if (old_tt_->At(r, 1) == p) {
          rows->emplace_back(old_tt_->At(r, 0), old_tt_->At(r, 2));
        }
      }
    }
    const VpRows& out = *rows;
    cache_.emplace(p, std::move(rows));
    return out;
  }

 private:
  storage::Catalog* catalog_;
  const storage::CatalogState& state_;
  const rdf::Table* old_tt_;
  std::unordered_map<TermId, std::unique_ptr<VpRows>> cache_;
};

rdf::Table TableFromRows(const VpRows& rows) {
  rdf::Table table({"s", "o"});
  table.Reserve(rows.size());
  for (const auto& [s, o] : rows) table.AppendRow({s, o});
  return table;
}

// Shared state of one batch's ExtVP delta maintenance, which reads the
// catalog as of `state`.
class DeltaMaintainer {
 public:
  // `trust_old_stats` says the catalog's stats describe `old_vp`'s
  // tables exactly (ingest). Refresh passes false: a stale pair's entry
  // undercounts against the already-committed VP tables, so only the
  // full scan may run.
  DeltaMaintainer(const IngestConfig& config, storage::Catalog* catalog,
                  const storage::CatalogState& state, OldVpSource* old_vp,
                  const std::unordered_map<TermId, VpRows>* delta,
                  bool trust_old_stats)
      : config_(config),
        catalog_(catalog),
        state_(state),
        old_vp_(old_vp),
        delta_(delta),
        trust_old_stats_(trust_old_stats) {}

  std::vector<TableUpdate>& updates() { return updates_; }

  // Delta-maintains the pair: recomputes its rows (when it can gain) or
  // amends its SF denominator (when only VP_p1 grew), emitting at most
  // one TableUpdate. `gain_possible` is the affected-pair verdict; for
  // pairs outside that set the row count provably cannot change.
  Status MaintainPair(Correlation corr, TermId p1, TermId p2,
                      bool gain_possible) {
    const std::string name = ExtVpTableName(corr, p1, p2);
    const storage::TableStats* old = state_.Find(name);
    if (config_.lazy_extvp && old == nullptr) {
      // "Pay as you go": uncomputed pairs stay uncomputed; their first
      // use builds them from the updated VP tables.
      return Status::Ok();
    }
    const CorrCols cols = CorrColumns(corr);
    const VpRows& old_vp1 = old_vp_->Rows(p1);
    const VpRows* delta_p1 = DeltaOf(p1);
    const uint64_t new_vp1_rows =
        old_vp1.size() + (delta_p1 != nullptr ? delta_p1->size() : 0);
    if (new_vp1_rows == 0) return Status::Ok();

    uint64_t count;
    VpRows rows;        // Valid only when `have_rows`.
    bool have_rows = false;
    if (gain_possible) {
      S2RDF_RETURN_IF_ERROR(ComputeRows(name, old, cols, p1, p2, &rows));
      have_rows = true;
      count = rows.size();
    } else {
      if (old == nullptr || old->rows == 0) return Status::Ok();
      count = old->rows;
    }

    if (count == 0) {
      // Still empty: a from-scratch rebuild registers nothing, so emit
      // nothing (a pre-existing zero entry stays as-is).
      return Status::Ok();
    }
    const double sf =
        static_cast<double>(count) / static_cast<double>(new_vp1_rows);
    if (old != nullptr && old->rows == count) {
      if (old->selectivity == (count == new_vp1_rows ? 1.0 : sf) &&
          old->materialized == (count != new_vp1_rows &&
                                sf < config_.sf_threshold)) {
        return Status::Ok();  // Bit-for-bit unchanged.
      }
      if (old->materialized && count != new_vp1_rows &&
          sf < config_.sf_threshold) {
        // Row set untouched, only the SF denominator moved: amend the
        // stats and keep the existing file.
        TableUpdate update;
        update.name = name;
        update.rows = count;
        update.selectivity = sf;
        update.retain_table = true;
        updates_.push_back(std::move(update));
        return Status::Ok();
      }
    }
    TableUpdate update;
    update.name = name;
    if (count == new_vp1_rows) {
      // SF = 1: identical to the (updated) VP table, never stored.
      update.rows = count;
      update.selectivity = 1.0;
    } else if (sf >= config_.sf_threshold) {
      update.rows = count;
      update.selectivity = sf;
    } else {
      if (!have_rows) {
        S2RDF_RETURN_IF_ERROR(ComputeRows(name, old, cols, p1, p2, &rows));
      }
      update.table = TableFromRows(rows);
      update.selectivity = sf;
    }
    updates_.push_back(std::move(update));
    return Status::Ok();
  }

 private:
  const VpRows* DeltaOf(TermId p) const {
    auto it = delta_->find(p);
    return it == delta_->end() ? nullptr : &it->second;
  }

  // Join-key set of the updated VP_p2's `right_col`, cached per
  // (predicate, column).
  const std::unordered_set<TermId>& RightKeys(TermId p2, int right_col) {
    uint64_t cache_key = (static_cast<uint64_t>(p2) << 1) |
                         static_cast<uint64_t>(right_col);
    auto it = right_keys_.find(cache_key);
    if (it != right_keys_.end()) return *it->second;
    auto keys = std::make_unique<std::unordered_set<TermId>>();
    for (const auto& [s, o] : old_vp_->Rows(p2)) {
      keys->insert(right_col == 0 ? s : o);
    }
    if (const VpRows* d = DeltaOf(p2)) {
      for (const auto& [s, o] : *d) keys->insert(right_col == 0 ? s : o);
    }
    const std::unordered_set<TermId>& out = *keys;
    right_keys_.emplace(cache_key, std::move(keys));
    return out;
  }

  // Recomputes the pair's full row list in the updated VP_p1's row
  // order: the surviving pre-batch rows first (part 1), then the
  // surviving batch rows (part 2) — exactly the order a from-scratch
  // rebuild over the concatenated triple stream emits.
  Status ComputeRows(const std::string& name, const storage::TableStats* old,
                     CorrCols cols, TermId p1, TermId p2, VpRows* out) {
    const VpRows& old_vp1 = old_vp_->Rows(p1);
    const VpRows* delta_p1 = DeltaOf(p1);
    const VpRows* delta_p2 = DeltaOf(p2);
    const bool right_may_grow = delta_p2 != nullptr && !delta_p2->empty();

    // Part 1 — pre-batch VP_p1 rows that (still or newly) match. The
    // join-key set only ever grows, so matches are monotone: an SF = 1
    // pair keeps all rows, and when VP_p2 gained nothing the old
    // materialized reduction *is* part 1 verbatim. (The SF = 1 shortcut
    // is sound even against a stale entry: rows <= |old VP_p1| <=
    // |VP_p1| forces equality throughout, i.e. every row matched and
    // monotonicity keeps it that way.)
    if (old != nullptr && old->rows == old_vp1.size() && old->rows > 0) {
      *out = old_vp1;
    } else if (trust_old_stats_ && !right_may_grow &&
               (old == nullptr || old->rows == 0)) {
      // Nothing matched before and the key set is unchanged.
    } else if (trust_old_stats_ && !right_may_grow && old != nullptr &&
               old->materialized && !state_.quarantined.contains(name)) {
      auto table_or = catalog_->GetTable(state_, name);
      if (table_or.ok()) {
        const rdf::Table& t = *table_or.value();
        out->reserve(t.NumRows());
        for (size_t r = 0; r < t.NumRows(); ++r) {
          out->emplace_back(t.At(r, 0), t.At(r, 1));
        }
      } else {
        ScanPart1(cols, old_vp1, p2, out);
      }
    } else {
      ScanPart1(cols, old_vp1, p2, out);
    }
    // Part 2 — the batch's VP_p1 rows that match.
    if (delta_p1 != nullptr && !delta_p1->empty()) {
      const std::unordered_set<TermId>& keys = RightKeys(p2, cols.right);
      for (const auto& [s, o] : *delta_p1) {
        if (keys.contains(cols.left == 0 ? s : o)) out->emplace_back(s, o);
      }
    }
    return Status::Ok();
  }

  void ScanPart1(CorrCols cols, const VpRows& old_vp1, TermId p2,
                 VpRows* out) {
    const std::unordered_set<TermId>& keys = RightKeys(p2, cols.right);
    for (const auto& [s, o] : old_vp1) {
      if (keys.contains(cols.left == 0 ? s : o)) out->emplace_back(s, o);
    }
  }

  const IngestConfig& config_;
  storage::Catalog* catalog_;
  const storage::CatalogState& state_;
  OldVpSource* old_vp_;
  const std::unordered_map<TermId, VpRows>* delta_;
  bool trust_old_stats_;
  std::unordered_map<uint64_t, std::unique_ptr<std::unordered_set<TermId>>>
      right_keys_;
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
  // The batch reads every statistic, quarantine and staleness bit from
  // one state.
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
  // predicate under the same (s << 32 | o) key CollectVpRows uses.
  std::unordered_map<TermId, std::unordered_set<uint64_t>> candidate_keys;
  std::vector<rdf::Triple> candidates;
  std::unordered_set<TermId> delta_terms;
  for (const rdf::Triple& t : stream) {
    if (!candidate_keys[t.predicate].insert(SoKey(t.subject, t.object))
             .second) {
      continue;
    }
    candidates.push_back(t);
    delta_terms.insert(t.subject);
    delta_terms.insert(t.object);
  }

  // One scan of the old triples table: drop candidates the store
  // already holds, and build the term -> predicates maps (over old data)
  // that enumerate which ExtVP pairs the batch can affect.
  std::unordered_map<TermId, std::unordered_set<uint64_t>> existing_keys;
  std::unordered_map<TermId, std::set<TermId>> subj_preds;
  std::unordered_map<TermId, std::set<TermId>> obj_preds;
  std::set<TermId> all_preds;
  for (size_t r = 0; r < old_tt->NumRows(); ++r) {
    const TermId s = old_tt->At(r, 0);
    const TermId p = old_tt->At(r, 1);
    const TermId o = old_tt->At(r, 2);
    all_preds.insert(p);
    auto ck = candidate_keys.find(p);
    if (ck != candidate_keys.end() && ck->second.contains(SoKey(s, o))) {
      existing_keys[p].insert(SoKey(s, o));
    }
    if (delta_terms.contains(s)) subj_preds[s].insert(p);
    if (delta_terms.contains(o)) obj_preds[o].insert(p);
  }

  // The surviving delta: per-predicate rows and the interleaved stream
  // (the triples table appends in arrival order, VP tables per
  // predicate — matching what CollectVpRows/BuildTriplesTable produce
  // over the concatenated stream).
  std::unordered_map<TermId, VpRows> delta;
  std::vector<TermId> delta_preds;
  std::vector<rdf::Triple> surviving;
  for (const rdf::Triple& t : candidates) {
    auto ex = existing_keys.find(t.predicate);
    if (ex != existing_keys.end() &&
        ex->second.contains(SoKey(t.subject, t.object))) {
      continue;
    }
    auto [it, inserted] = delta.try_emplace(t.predicate);
    if (inserted) delta_preds.push_back(t.predicate);
    it->second.emplace_back(t.subject, t.object);
    surviving.push_back(t);
    subj_preds[t.subject].insert(t.predicate);
    obj_preds[t.object].insert(t.predicate);
    all_preds.insert(t.predicate);
  }
  result.triples_added = surviving.size();
  if (surviving.empty()) {
    result.millis = MillisSince(start);
    return result;  // Fully duplicate batch: no generation committed.
  }

  OldVpSource old_vp(catalog, *state, old_tt.get());
  DeltaMaintainer maintainer(config, catalog, *state, &old_vp, &delta,
                             /*trust_old_stats=*/true);

  // Triples-table and VP appends.
  {
    rdf::Table new_tt = *old_tt;
    for (const rdf::Triple& t : surviving) {
      new_tt.AppendRow({t.subject, t.predicate, t.object});
    }
    TableUpdate update;
    update.name = TriplesTableName();
    update.table = std::move(new_tt);
    maintainer.updates().push_back(std::move(update));
  }
  for (TermId p : delta_preds) {
    rdf::Table new_vp = TableFromRows(old_vp.Rows(p));
    for (const auto& [s, o] : delta[p]) new_vp.AppendRow({s, o});
    TableUpdate update;
    update.name = VpTableName(p);
    update.table = std::move(new_vp);
    maintainer.updates().push_back(std::move(update));
  }
  result.vp_tables_updated = delta_preds.size();

  storage::CommitOptions commit;
  const bool has_extvp = state->Find(kExtVpMarker) != nullptr;
  if (batch.defer_extvp_maintenance && has_extvp) {
    // Deferred mode: commit only the appends; dependents of the touched
    // VP tables are stale until RefreshStaleExtVp.
    for (TermId p : delta_preds) {
      std::string vp_name = VpTableName(p);
      if (!state->stale_sources.contains(vp_name)) {
        ++result.stale_sources_marked;
      }
      commit.mark_stale.push_back(std::move(vp_name));
    }
  } else if (has_extvp) {
    // Sources already stale from an earlier deferred batch stay stale —
    // their reductions need a full refresh anyway, and refresh reads the
    // post-batch VP tables.
    std::set<TermId> stale_pids;
    for (TermId p : all_preds) {
      if (state->stale_sources.contains(VpTableName(p))) {
        stale_pids.insert(p);
      }
    }

    // Pairs that can gain rows: for every surviving row, the partner
    // predicates its terms join with — the same per-correlation
    // term-index lookups BuildExtVpLayout's counting sweep does, from
    // both the left (p1 gains rows) and right (p1's old rows newly
    // match) side of each pair.
    std::set<PairId> affected;
    auto add = [&](int c, TermId p1, TermId p2) {
      if (kCorrelations[c] == Correlation::kSS && p1 == p2) return;
      if (stale_pids.contains(p1) || stale_pids.contains(p2)) return;
      affected.insert({c, p1, p2});
    };
    for (TermId p : delta_preds) {
      for (const auto& [s, o] : delta[p]) {
        for (TermId q : subj_preds[s]) {
          add(0, p, q);
          add(0, q, p);
        }
        for (TermId q : subj_preds[o]) add(1, p, q);
        for (TermId q : obj_preds[s]) add(1, q, p);
        for (TermId q : obj_preds[s]) add(2, p, q);
        for (TermId q : subj_preds[o]) add(2, q, p);
      }
    }
    for (const auto& [c, p1, p2] : affected) {
      S2RDF_RETURN_IF_ERROR(maintainer.MaintainPair(
          kCorrelations[c], p1, p2, /*gain_possible=*/true));
    }
    // Every other pair whose left VP grew keeps its rows but sees a new
    // SF denominator (which can cross the materialization threshold in
    // either direction).
    for (TermId p1 : delta_preds) {
      if (stale_pids.contains(p1)) continue;
      for (TermId p2 : all_preds) {
        if (stale_pids.contains(p2)) continue;
        for (int c = 0; c < kNumCorrelations; ++c) {
          if (kCorrelations[c] == Correlation::kSS && p1 == p2) continue;
          if (affected.contains({c, p1, p2})) continue;
          S2RDF_RETURN_IF_ERROR(maintainer.MaintainPair(
              kCorrelations[c], p1, p2, /*gain_possible=*/false));
        }
      }
    }
    result.extvp_tables_updated =
        maintainer.updates().size() - 1 - delta_preds.size();
  }

  // The commit stores every term minted since the previous one: this
  // batch's, and any a query minted meanwhile that the batch reuses.
  const auto minted = static_cast<TermId>(dict->size());
  if (!catalog->dir().empty() && minted > *dict_committed) {
    commit.dictionary_blob = dict->Serialize(*dict_committed, minted);
  }
  S2RDF_RETURN_IF_ERROR(
      catalog->CommitBatch(std::move(maintainer.updates()), commit));
  *dict_committed = minted;
  result.generation = catalog->State()->generation;
  result.millis = MillisSince(start);
  return result;
}

StatusOr<uint64_t> RefreshStaleExtVp(const IngestConfig& config,
                                     storage::Catalog* catalog) {
  const std::shared_ptr<const storage::CatalogState> state = catalog->State();
  const std::set<std::string, std::less<>>& stale_set = state->stale_sources;
  if (stale_set.empty()) return 0;

  S2RDF_ASSIGN_OR_RETURN(std::shared_ptr<const rdf::Table> tt,
                         catalog->GetTable(*state, TriplesTableName()));
  std::set<TermId> all_preds;
  for (size_t r = 0; r < tt->NumRows(); ++r) all_preds.insert(tt->At(r, 1));
  std::set<TermId> stale_pids;
  for (TermId p : all_preds) {
    if (stale_set.contains(VpTableName(p))) stale_pids.insert(p);
  }

  // Every pair with a stale predicate on either side is recomputed from
  // the current (post-ingest) VP tables — the "delta" is empty, so the
  // maintainer's plain semi-join scan path runs.
  OldVpSource current_vp(catalog, *state, tt.get());
  std::unordered_map<TermId, VpRows> no_delta;
  DeltaMaintainer maintainer(config, catalog, *state, &current_vp, &no_delta,
                             /*trust_old_stats=*/false);
  for (TermId p1 : all_preds) {
    for (TermId p2 : all_preds) {
      if (!stale_pids.contains(p1) && !stale_pids.contains(p2)) continue;
      for (int c = 0; c < kNumCorrelations; ++c) {
        if (kCorrelations[c] == Correlation::kSS && p1 == p2) continue;
        S2RDF_RETURN_IF_ERROR(maintainer.MaintainPair(
            kCorrelations[c], p1, p2, /*gain_possible=*/true));
      }
    }
  }
  uint64_t refreshed = maintainer.updates().size();
  storage::CommitOptions commit;
  commit.clear_stale.assign(stale_set.begin(), stale_set.end());
  S2RDF_RETURN_IF_ERROR(
      catalog->CommitBatch(std::move(maintainer.updates()), commit));
  return refreshed;
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
