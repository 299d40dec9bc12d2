#include "core/layouts.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/clock.h"
#include "engine/operators.h"

namespace s2rdf::core {

namespace {
using rdf::TermId;
}  // namespace

// RDF graphs are sets, so every layout builds from the deduped triple
// set to stay mutually consistent (and row-aligned with the bitmaps).
VpRowData CollectVpRows(const rdf::Graph& graph) {
  VpRowData out;
  std::unordered_map<TermId, std::unordered_set<uint64_t>> seen;
  for (const rdf::Triple& t : graph.triples()) {
    uint64_t key = (static_cast<uint64_t>(t.subject) << 32) | t.object;
    auto [it, inserted] = seen[t.predicate].insert(key);
    if (!inserted) continue;
    auto rows = out.rows.find(t.predicate);
    if (rows == out.rows.end()) {
      out.predicates.push_back(t.predicate);
      rows = out.rows.emplace(t.predicate,
                              std::vector<std::pair<TermId, TermId>>())
                 .first;
    }
    rows->second.emplace_back(t.subject, t.object);
  }
  return out;
}

Status BuildTriplesTable(const rdf::Graph& graph, storage::Catalog* catalog) {
  rdf::Table table({"s", "p", "o"});
  table.Reserve(graph.NumTriples());
  std::unordered_set<uint64_t> seen;
  seen.reserve(graph.NumTriples());
  for (const rdf::Triple& t : graph.triples()) {
    // 96-bit triple folded to 64 bits of exact state is not enough; use a
    // two-level check: hash set of mixed key plus verification is
    // overkill here — duplicates are rare, so key on (s^rot(p), o).
    uint64_t key = (static_cast<uint64_t>(t.subject) << 32) | t.object;
    key = key * 0x9e3779b97f4a7c15ULL + t.predicate;
    if (!seen.insert(key).second) {
      // Possible duplicate (or a hash collision dropping a distinct
      // triple with probability ~n^2/2^64 — negligible for our scales).
      continue;
    }
    table.AppendRow({t.subject, t.predicate, t.object});
  }
  return catalog->Put(TriplesTableName(), std::move(table), 1.0);
}

Status BuildVpLayout(const rdf::Graph& graph, storage::Catalog* catalog) {
  VpRowData vp = CollectVpRows(graph);
  for (TermId p : vp.predicates) {
    const auto& rows = vp.rows[p];
    rdf::Table table({"s", "o"});
    table.Reserve(rows.size());
    for (const auto& [s, o] : rows) table.AppendRow({s, o});
    S2RDF_RETURN_IF_ERROR(catalog->Put(VpTableName(p), std::move(table), 1.0));
  }
  return Status::Ok();
}

StatusOr<ExtVpBuildStats> BuildExtVpLayout(const rdf::Graph& graph,
                                           const ExtVpOptions& options,
                                           storage::Catalog* catalog) {
  auto start_time = MonotonicNow();
  ExtVpBuildStats build_stats;
  VpRowData vp = CollectVpRows(graph);
  const size_t k = vp.predicates.size();

  // Dense predicate indices for compact pair keys.
  std::unordered_map<TermId, uint32_t> pred_index;
  for (size_t i = 0; i < k; ++i) {
    pred_index[vp.predicates[i]] = static_cast<uint32_t>(i);
  }

  // term -> sorted distinct predicate indices where the term occurs as
  // subject / object. These power all three correlation directions in a
  // single linear pass instead of k^2 semi-joins.
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

  constexpr int kNumCorrelations = 3;
  const Correlation kCorrelations[kNumCorrelations] = {
      Correlation::kSS, Correlation::kOS, Correlation::kSO};

  auto pair_key = [](uint32_t p1, uint32_t p2) {
    return (static_cast<uint64_t>(p1) << 32) | p2;
  };

  // Pass 1: count |ExtVP_corr_p1|p2| for all non-empty combinations.
  std::unordered_map<uint64_t, uint64_t> counts[kNumCorrelations];
  for (size_t i1 = 0; i1 < k; ++i1) {
    uint32_t p1 = static_cast<uint32_t>(i1);
    for (const auto& [s, o] : vp.rows[vp.predicates[i1]]) {
      for (uint32_t p2 : subject_preds.find(s)->second) {
        if (p2 != p1) ++counts[0][pair_key(p1, p2)];
      }
      if (auto it = subject_preds.find(o); it != subject_preds.end()) {
        for (uint32_t p2 : it->second) ++counts[1][pair_key(p1, p2)];
      }
      if (auto it = object_preds.find(s); it != object_preds.end()) {
        for (uint32_t p2 : it->second) ++counts[2][pair_key(p1, p2)];
      }
    }
  }

  // Decide materialization per combination and register statistics.
  // selected[corr] maps pair key -> output table (filled in pass 2).
  std::unordered_map<uint64_t, rdf::Table> selected[kNumCorrelations];
  for (int c = 0; c < kNumCorrelations; ++c) {
    // The number of combinations considered includes empty ones: all
    // ordered pairs (minus p1 == p2 for SS).
    build_stats.tables_considered +=
        static_cast<uint64_t>(k) * k - (kCorrelations[c] == Correlation::kSS
                                            ? static_cast<uint64_t>(k)
                                            : 0);
    for (const auto& [key, count] : counts[c]) {
      uint32_t i1 = static_cast<uint32_t>(key >> 32);
      uint32_t i2 = static_cast<uint32_t>(key & 0xffffffffu);
      TermId p1 = vp.predicates[i1];
      TermId p2 = vp.predicates[i2];
      uint64_t vp_rows = vp.rows[p1].size();
      double sf = static_cast<double>(count) / static_cast<double>(vp_rows);
      std::string name = ExtVpTableName(kCorrelations[c], p1, p2);
      if (count == vp_rows) {
        // SF = 1: identical to VP, never stored (red tables in Fig. 10).
        ++build_stats.tables_equal_vp;
        catalog->PutStatsOnly(name, count, 1.0);
        continue;
      }
      if (sf >= options.sf_threshold) {
        ++build_stats.tables_pruned;
        catalog->PutStatsOnly(name, count, sf);
        continue;
      }
      ++build_stats.tables_materialized;
      build_stats.tuples_materialized += count;
      rdf::Table table({"s", "o"});
      table.Reserve(count);
      selected[c].emplace(key, std::move(table));
    }
  }
  build_stats.tables_empty =
      build_stats.tables_considered -
      (counts[0].size() + counts[1].size() + counts[2].size());

  // Pass 2: fill the selected tables in one more sweep, each in VP_p1's
  // row order.
  for (size_t i1 = 0; i1 < k; ++i1) {
    uint32_t p1 = static_cast<uint32_t>(i1);
    for (const auto& [s, o] : vp.rows[vp.predicates[i1]]) {
      for (uint32_t p2 : subject_preds.find(s)->second) {
        if (p2 == p1) continue;
        auto it = selected[0].find(pair_key(p1, p2));
        if (it != selected[0].end()) it->second.AppendRow({s, o});
      }
      if (auto sp = subject_preds.find(o); sp != subject_preds.end()) {
        for (uint32_t p2 : sp->second) {
          auto it = selected[1].find(pair_key(p1, p2));
          if (it != selected[1].end()) it->second.AppendRow({s, o});
        }
      }
      if (auto op = object_preds.find(s); op != object_preds.end()) {
        for (uint32_t p2 : op->second) {
          auto it = selected[2].find(pair_key(p1, p2));
          if (it != selected[2].end()) it->second.AppendRow({s, o});
        }
      }
    }
  }

  for (int c = 0; c < kNumCorrelations; ++c) {
    for (auto& [key, table] : selected[c]) {
      uint32_t i1 = static_cast<uint32_t>(key >> 32);
      uint32_t i2 = static_cast<uint32_t>(key & 0xffffffffu);
      TermId p1 = vp.predicates[i1];
      TermId p2 = vp.predicates[i2];
      double sf = static_cast<double>(table.NumRows()) /
                  static_cast<double>(vp.rows[p1].size());
      S2RDF_RETURN_IF_ERROR(catalog->Put(
          ExtVpTableName(kCorrelations[c], p1, p2), std::move(table), sf));
    }
  }

  // So the compiler can tell "combination empty" from "ExtVP never
  // built".
  catalog->PutStatsOnly(kExtVpMarker, 1, 1.0);

  build_stats.build_seconds = SecondsSince(start_time);
  return build_stats;
}

Status MaterializeExtVpPair(Correlation corr, rdf::TermId p1, rdf::TermId p2,
                            double sf_threshold, storage::Catalog* catalog) {
  std::string name = ExtVpTableName(corr, p1, p2);
  if (catalog->State()->Find(name) != nullptr) return Status::Ok();  // Built.
  // Shared ownership: a concurrent query's eviction pass must not free
  // the VP tables while this reduction is being computed.
  S2RDF_ASSIGN_OR_RETURN(std::shared_ptr<const rdf::Table> vp1,
                         catalog->GetTable(VpTableName(p1)));
  S2RDF_ASSIGN_OR_RETURN(std::shared_ptr<const rdf::Table> vp2,
                         catalog->GetTable(VpTableName(p2)));

  // Column roles per correlation: reduce VP_p1 by the matching column
  // of VP_p2 (Sec. 5.2's semi-join definitions).
  int left_col;   // Column of VP_p1 that must find a partner.
  int right_col;  // Column of VP_p2 providing the partners.
  switch (corr) {
    case Correlation::kSS:
      left_col = 0;
      right_col = 0;
      break;
    case Correlation::kOS:
      left_col = 1;
      right_col = 0;
      break;
    case Correlation::kSO:
      left_col = 0;
      right_col = 1;
      break;
    default:
      return InvalidArgumentError("unknown correlation");
  }

  rdf::Table reduced =
      engine::SemiJoin(*vp1, left_col, *vp2, right_col, nullptr);
  double sf = vp1->NumRows() == 0
                  ? 0.0
                  : static_cast<double>(reduced.NumRows()) /
                        static_cast<double>(vp1->NumRows());
  if (reduced.NumRows() == 0 || reduced.NumRows() == vp1->NumRows() ||
      sf >= sf_threshold) {
    // Empty, equal to VP, or pruned: statistics only.
    catalog->PutStatsOnly(name, reduced.NumRows(),
                          reduced.NumRows() == vp1->NumRows() ? 1.0 : sf);
    return Status::Ok();
  }
  return catalog->Put(name, std::move(reduced), sf);
}

StatusOr<PropertyTableBuildStats> BuildPropertyTable(
    const rdf::Graph& graph, PropertyTableStrategy strategy,
    storage::Catalog* catalog) {
  PropertyTableBuildStats build_stats;
  VpRowData vp = CollectVpRows(graph);

  // subject -> predicate -> values.
  std::map<TermId, std::map<TermId, std::vector<TermId>>> by_subject;
  for (TermId p : vp.predicates) {
    for (const auto& [s, o] : vp.rows[p]) by_subject[s][p].push_back(o);
  }

  // A predicate is multi-valued if any subject carries >= 2 values.
  std::unordered_set<TermId> multi_valued;
  for (const auto& [s, preds] : by_subject) {
    for (const auto& [p, values] : preds) {
      if (values.size() > 1) multi_valued.insert(p);
    }
  }

  std::vector<TermId> inline_preds;
  for (TermId p : vp.predicates) {
    bool is_multi = multi_valued.contains(p);
    if (strategy == PropertyTableStrategy::kAuxiliaryTables && is_multi) {
      build_stats.multi_valued.push_back(p);
    } else {
      inline_preds.push_back(p);
      build_stats.single_valued.push_back(p);
    }
  }

  // Column names reuse the VP naming so the Sempala engine can address
  // columns uniformly.
  std::vector<std::string> names = {"s"};
  for (TermId p : inline_preds) names.push_back(VpTableName(p));
  rdf::Table pt(std::move(names));

  for (const auto& [s, preds] : by_subject) {
    // Cross product over the value lists of the inlined predicates
    // (absent predicate -> single null). Under kAuxiliaryTables every
    // inlined predicate has at most one value, so this emits one row.
    std::vector<std::vector<TermId>> value_lists;
    value_lists.reserve(inline_preds.size());
    bool any = false;
    for (TermId p : inline_preds) {
      auto it = preds.find(p);
      if (it == preds.end()) {
        value_lists.push_back({rdf::kNullTermId});
      } else {
        value_lists.push_back(it->second);
        any = true;
      }
    }
    if (!any) continue;  // Subject only appears with aux predicates.
    std::vector<size_t> cursor(value_lists.size(), 0);
    while (true) {
      std::vector<TermId> row;
      row.reserve(1 + value_lists.size());
      row.push_back(s);
      for (size_t i = 0; i < value_lists.size(); ++i) {
        row.push_back(value_lists[i][cursor[i]]);
      }
      pt.AppendRow(row);
      // Odometer increment.
      size_t i = 0;
      for (; i < cursor.size(); ++i) {
        if (++cursor[i] < value_lists[i].size()) break;
        cursor[i] = 0;
      }
      if (i == cursor.size()) break;
    }
  }

  build_stats.pt_rows = pt.NumRows();
  S2RDF_RETURN_IF_ERROR(
      catalog->Put(PropertyTableName(), std::move(pt), 1.0));

  for (TermId p : build_stats.multi_valued) {
    const auto& rows = vp.rows[p];
    rdf::Table aux({"s", "o"});
    aux.Reserve(rows.size());
    for (const auto& [s, o] : rows) aux.AppendRow({s, o});
    build_stats.aux_tuples += rows.size();
    ++build_stats.aux_tables;
    S2RDF_RETURN_IF_ERROR(
        catalog->Put(PropertyAuxTableName(p), std::move(aux), 1.0));
  }
  return build_stats;
}

}  // namespace s2rdf::core
