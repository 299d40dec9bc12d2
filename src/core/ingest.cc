#include "core/ingest.h"

#include <memory>
#include <optional>
#include <set>
#include <string>
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

// An (s, o) table's rows, and back.
VpRows RowsOf(const rdf::Table& table) {
  VpRows rows;
  rows.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    rows.emplace_back(table.At(r, 0), table.At(r, 1));
  }
  return rows;
}

rdf::Table TableFromRows(const VpRows& rows) {
  rdf::Table table({"s", "o"});
  table.Reserve(rows.size());
  for (const auto& [s, o] : rows) table.AppendRow({s, o});
  return table;
}

// The (s, o) row lists of the VP tables of `state`, each loaded on first
// use. A quarantined or checksum-failing VP is reconstructed from the
// state's triples table — TT's (s, p, o) dedup restricted to one
// predicate is exactly CollectVpRows' per-predicate dedup, in the same
// first-appearance order, so the reconstruction is byte-identical to
// the lost table (and an ingest commit rewrites it, self-healing the
// quarantine).
class VpSource {
 public:
  // `tt` is the state's triples table when the caller holds it already;
  // null loads it when a VP table first fails to.
  VpSource(storage::Catalog* catalog, const storage::CatalogState& state,
           std::shared_ptr<const rdf::Table> tt)
      : catalog_(catalog), state_(state), tt_(std::move(tt)) {}

  StatusOr<const VpRows*> Rows(TermId p) {
    auto it = cache_.find(p);
    if (it != cache_.end()) return it->second.get();
    auto rows = std::make_unique<VpRows>();
    const std::string name = VpTableName(p);
    if (state_.Find(name) != nullptr) {
      auto table_or = catalog_->GetTable(state_, name);
      if (table_or.ok()) {
        *rows = RowsOf(**table_or);
      } else {
        if (tt_ == nullptr) {
          S2RDF_ASSIGN_OR_RETURN(
              tt_, catalog_->GetTable(state_, TriplesTableName()));
        }
        for (size_t r = 0; r < tt_->NumRows(); ++r) {
          if (tt_->At(r, 1) != p) continue;
          rows->emplace_back(tt_->At(r, 0), tt_->At(r, 2));
        }
      }
    }
    const VpRows* out = rows.get();
    cache_.emplace(p, std::move(rows));
    return out;
  }

 private:
  storage::Catalog* catalog_;
  const storage::CatalogState& state_;
  std::shared_ptr<const rdf::Table> tt_;
  std::unordered_map<TermId, std::unique_ptr<VpRows>> cache_;
};


// The per-pair ExtVP kernel: reduces single pairs against the catalog as
// of `state`, the VP tables read through `vp` plus a per-predicate
// delta of rows appended after them. Ingest passes the batch as the
// delta; refresh and lazy first use pass none.
class DeltaMaintainer {
 public:
  // `trust_old_stats` says the catalog's stats describe `vp`'s tables
  // exactly (ingest). Refresh and first use pass false: a stale pair's
  // entry undercounts against the already-committed VP tables, and a
  // pair never computed has none, so only the full scan may run.
  DeltaMaintainer(const IngestConfig& config, storage::Catalog* catalog,
                  const storage::CatalogState& state, VpSource* vp,
                  const std::unordered_map<TermId, VpRows>* delta,
                  bool trust_old_stats)
      : config_(config),
        catalog_(catalog),
        state_(state),
        vp_(vp),
        delta_(delta),
        trust_old_stats_(trust_old_stats) {}

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
    S2RDF_ASSIGN_OR_RETURN(const VpRows* old_vp1, vp_->Rows(pair.p1));
    const VpRows* delta_p1 = DeltaOf(pair.p1);
    const uint64_t new_vp1_rows =
        old_vp1->size() + (delta_p1 != nullptr ? delta_p1->size() : 0);
    if (new_vp1_rows == 0) return Status::Ok();

    uint64_t count;
    VpRows rows;        // Valid only when `have_rows`.
    bool have_rows = false;
    if (gain_possible) {
      S2RDF_RETURN_IF_ERROR(ComputeRows(name, old, pair, &rows));
      have_rows = true;
      count = rows.size();
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
      if (!have_rows) {
        S2RDF_RETURN_IF_ERROR(ComputeRows(name, old, pair, &rows));
      }
      update.table = TableFromRows(rows);
    } else {
      update.rows = count;  // SF = 1 or pruned: statistics only.
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
  StatusOr<const std::unordered_set<TermId>*> RightKeys(TermId p2,
                                                       int right_col) {
    uint64_t cache_key = (static_cast<uint64_t>(p2) << 1) |
                         static_cast<uint64_t>(right_col);
    auto it = right_keys_.find(cache_key);
    if (it != right_keys_.end()) return it->second.get();
    S2RDF_ASSIGN_OR_RETURN(const VpRows* vp2, vp_->Rows(p2));
    auto keys = std::make_unique<std::unordered_set<TermId>>();
    for (const auto& [s, o] : *vp2) keys->insert(right_col == 0 ? s : o);
    if (const VpRows* d = DeltaOf(p2)) {
      for (const auto& [s, o] : *d) keys->insert(right_col == 0 ? s : o);
    }
    const std::unordered_set<TermId>* out = keys.get();
    right_keys_.emplace(cache_key, std::move(keys));
    return out;
  }

  // Appends the rows of `from` that find a partner in VP_p2 (the
  // pair's semi-join) to `out`.
  Status Reduce(const VpRows& from, const ExtVpPair& pair, VpRows* out) {
    const CorrelationRoles& roles = RolesOf(pair.corr);
    S2RDF_ASSIGN_OR_RETURN(const std::unordered_set<TermId>* keys,
                           RightKeys(pair.p2, roles.right));
    for (const auto& [s, o] : from) {
      if (keys->contains(roles.left == 0 ? s : o)) out->emplace_back(s, o);
    }
    return Status::Ok();
  }

  // Recomputes the pair's full row list in the updated VP_p1's row
  // order: the surviving pre-batch rows first (part 1), then the
  // surviving batch rows (part 2) — exactly the order a from-scratch
  // rebuild over the concatenated triple stream emits.
  Status ComputeRows(const std::string& name, const storage::TableStats* old,
                     const ExtVpPair& pair, VpRows* out) {
    S2RDF_ASSIGN_OR_RETURN(const VpRows* old_vp1, vp_->Rows(pair.p1));
    const VpRows* delta_p1 = DeltaOf(pair.p1);
    const VpRows* delta_p2 = DeltaOf(pair.p2);
    const bool right_may_grow = delta_p2 != nullptr && !delta_p2->empty();

    // Part 1 — pre-batch VP_p1 rows that (still or newly) match. The
    // join-key set only ever grows, so matches are monotone: an SF = 1
    // pair keeps all rows, and when VP_p2 gained nothing the old
    // materialized reduction *is* part 1 verbatim. (The SF = 1 shortcut
    // is sound even against a stale entry: rows <= |old VP_p1| <=
    // |VP_p1| forces equality throughout, i.e. every row matched and
    // monotonicity keeps it that way.)
    if (old != nullptr && old->rows == old_vp1->size() && old->rows > 0) {
      *out = *old_vp1;
    } else if (trust_old_stats_ && !right_may_grow &&
               (old == nullptr || old->rows == 0)) {
      // Nothing matched before and the key set is unchanged.
    } else if (trust_old_stats_ && !right_may_grow && old != nullptr &&
               old->materialized) {
      auto table_or = catalog_->GetTable(state_, name);
      if (table_or.ok()) {
        *out = RowsOf(**table_or);
      } else {
        S2RDF_RETURN_IF_ERROR(Reduce(*old_vp1, pair, out));
      }
    } else {
      S2RDF_RETURN_IF_ERROR(Reduce(*old_vp1, pair, out));
    }
    // Part 2 — the batch's VP_p1 rows that match.
    if (delta_p1 != nullptr && !delta_p1->empty()) {
      S2RDF_RETURN_IF_ERROR(Reduce(*delta_p1, pair, out));
    }
    return Status::Ok();
  }

  const IngestConfig& config_;
  storage::Catalog* catalog_;
  const storage::CatalogState& state_;
  VpSource* vp_;
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
  // preds_by_column[c]: term -> the predicates whose rows hold it in
  // column c (0 = s, 1 = o).
  std::unordered_map<TermId, std::unordered_set<uint64_t>> existing_keys;
  std::unordered_map<TermId, std::set<TermId>> preds_by_column[2];
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
    if (delta_terms.contains(s)) preds_by_column[0][s].insert(p);
    if (delta_terms.contains(o)) preds_by_column[1][o].insert(p);
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
    preds_by_column[0][t.subject].insert(t.predicate);
    preds_by_column[1][t.object].insert(t.predicate);
    all_preds.insert(t.predicate);
  }
  result.triples_added = surviving.size();
  if (surviving.empty()) {
    result.millis = MillisSince(start);
    return result;  // Fully duplicate batch: no generation committed.
  }

  VpSource old_vp(catalog, *state, old_tt);
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
    S2RDF_ASSIGN_OR_RETURN(const VpRows* old_rows, old_vp.Rows(p));
    rdf::Table new_vp = TableFromRows(*old_rows);
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

    // Pairs that can gain rows: for every surviving row and
    // correlation, the partner predicates its terms join with, from both
    // the left (p1 gains the row) and the right (p1's old rows newly
    // match it) side of the pair.
    std::set<ExtVpPair> affected;
    auto add = [&](Correlation corr, TermId p1, TermId p2) {
      if (corr == Correlation::kSS && p1 == p2) return;
      if (stale_pids.contains(p1) || stale_pids.contains(p2)) return;
      affected.insert({corr, p1, p2});
    };
    for (TermId p : delta_preds) {
      for (const auto& [s, o] : delta[p]) {
        const TermId cells[2] = {s, o};
        for (const CorrelationRoles& roles : kCorrelationRoles) {
          for (TermId q : preds_by_column[roles.right][cells[roles.left]]) {
            add(roles.corr, p, q);
          }
          for (TermId q : preds_by_column[roles.left][cells[roles.right]]) {
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
    // either direction).
    for (TermId p1 : delta_preds) {
      if (stale_pids.contains(p1)) continue;
      for (TermId p2 : all_preds) {
        if (stale_pids.contains(p2)) continue;
        for (const CorrelationRoles& roles : kCorrelationRoles) {
          const ExtVpPair pair{roles.corr, p1, p2};
          if (pair.corr == Correlation::kSS && p1 == p2) continue;
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
  VpSource current_vp(catalog, *state, tt);
  const std::unordered_map<TermId, VpRows> no_delta;
  DeltaMaintainer maintainer(config, catalog, *state, &current_vp, &no_delta,
                             /*trust_old_stats=*/false);
  for (TermId p1 : all_preds) {
    for (TermId p2 : all_preds) {
      if (!stale_pids.contains(p1) && !stale_pids.contains(p2)) continue;
      for (const CorrelationRoles& roles : kCorrelationRoles) {
        if (roles.corr == Correlation::kSS && p1 == p2) continue;
        S2RDF_RETURN_IF_ERROR(maintainer.MaintainPair(
            {roles.corr, p1, p2}, /*gain_possible=*/true));
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

Status StageExtVpPairs(const std::set<ExtVpPair>& pairs, double sf_threshold,
                       const storage::CatalogState& state,
                       storage::Catalog* catalog) {
  // Every pair asked for is computed: skipping uncomputed pairs is what
  // ingest and refresh do on a lazy store.
  const IngestConfig config{.sf_threshold = sf_threshold};
  VpSource current_vp(catalog, state, nullptr);
  const std::unordered_map<TermId, VpRows> no_delta;
  DeltaMaintainer maintainer(config, catalog, state, &current_vp, &no_delta,
                             /*trust_old_stats=*/false);
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
