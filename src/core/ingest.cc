#include "core/ingest.h"

#include <algorithm>
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
#include "core/extvp_kernel.h"
#include "core/layout_names.h"
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

// Row indices [begin, end): the rows an append adds.
std::vector<uint32_t> RowRange(size_t begin, size_t end) {
  std::vector<uint32_t> rows(end - begin);
  std::iota(rows.begin(), rows.end(), static_cast<uint32_t>(begin));
  return rows;
}

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
  // predicate under the same (s << 32 | o) key the VP builder uses. Each
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
  // predicate — matching what BuildTriplesTable/BuildVpLayout produce
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
  DeltaMaintainer maintainer(config.sf_threshold, catalog, *state, &old_vp,
                             &delta);

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
      // "Pay as you go": a pair no query has computed stays uncomputed.
      if (config.lazy_extvp &&
          state->Find(ExtVpTableName(pair.corr, pair.p1, pair.p2)) ==
              nullptr) {
        continue;
      }
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
          const std::optional<TermId> p2 = IdAfter(prefix, it->first);
          if (!p2.has_value()) continue;
          const ExtVpPair pair{roles.corr, p1, *p2};
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

Status CommitExtVpPairs(const std::set<ExtVpPair>& pairs, double sf_threshold,
                        const storage::CatalogState& state,
                        storage::Catalog* catalog) {
  VpSource current_vp(catalog, state, nullptr);
  DeltaMaintainer kernel(sf_threshold, catalog, state, &current_vp, nullptr);
  for (const ExtVpPair& pair : pairs) {
    const std::string name = ExtVpTableName(pair.corr, pair.p1, pair.p2);
    if (state.Find(name) != nullptr) continue;  // Computed already.
    const size_t emitted = kernel.updates().size();
    S2RDF_RETURN_IF_ERROR(kernel.MaintainPair(pair, /*gain_possible=*/true));
    if (kernel.updates().size() == emitted) {
      // Empty. Unlike the eager build, a lazy store records it, with 0
      // rows: its entry is what marks the pair computed.
      TableUpdate& empty = kernel.updates().emplace_back();
      empty.name = name;
      empty.selectivity = 0.0;
    }
  }
  return catalog->CommitBatch(std::move(kernel.updates()));
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
