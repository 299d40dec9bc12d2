#include "core/layouts.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/clock.h"

namespace s2rdf::core {

namespace {
using rdf::TermId;
}  // namespace

// RDF graphs are sets, so every layout builds from the deduped triple
// set to stay mutually consistent (and row-aligned with the bitmaps).
VpRowData CollectVpRows(const rdf::Graph& graph) {
  VpRowData out;
  std::unordered_map<TermId, uint32_t> index;
  std::vector<std::unordered_set<uint64_t>> seen;
  for (const rdf::Triple& t : graph.triples()) {
    auto [it, added] = index.try_emplace(
        t.predicate, static_cast<uint32_t>(out.predicates.size()));
    if (added) {
      out.predicates.push_back(t.predicate);
      out.rows.emplace_back();
      seen.emplace_back();
    }
    uint64_t key = (static_cast<uint64_t>(t.subject) << 32) | t.object;
    if (!seen[it->second].insert(key).second) continue;
    out.rows[it->second].emplace_back(t.subject, t.object);
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
  for (size_t i = 0; i < vp.predicates.size(); ++i) {
    rdf::Table table({"s", "o"});
    table.Reserve(vp.rows[i].size());
    for (const auto& [s, o] : vp.rows[i]) table.AppendRow({s, o});
    S2RDF_RETURN_IF_ERROR(
        catalog->Put(VpTableName(vp.predicates[i]), std::move(table), 1.0));
  }
  return Status::Ok();
}

ExtVpVerdict ClassifyExtVp(uint64_t rows, uint64_t vp_rows,
                           double sf_threshold) {
  if (rows == 0) return {ExtVpVerdict::kEmpty, 0.0};
  // Red tables in Fig. 10: identical to VP_p1.
  if (rows == vp_rows) return {ExtVpVerdict::kEqualVp, 1.0};
  const double sf = static_cast<double>(rows) / static_cast<double>(vp_rows);
  return {sf < sf_threshold ? ExtVpVerdict::kStored
                            : ExtVpVerdict::kPruned,
          sf};
}

ExtVpSweep::ExtVpSweep(const VpRowData& vp) : vp_(vp) {
  for (uint32_t i = 0; i < vp.rows.size(); ++i) {
    for (const auto& [s, o] : vp.rows[i]) {
      for (int column = 0; column < 2; ++column) {
        std::vector<uint32_t>& preds = by_column_[column][column == 0 ? s : o];
        if (preds.empty() || preds.back() != i) preds.push_back(i);
      }
    }
  }
}

StatusOr<ExtVpBuildStats> BuildExtVpLayout(const rdf::Graph& graph,
                                           const ExtVpOptions& options,
                                           storage::Catalog* catalog) {
  auto start_time = MonotonicNow();
  ExtVpBuildStats build_stats;
  const VpRowData vp = CollectVpRows(graph);
  const ExtVpSweep sweep(vp);
  const uint64_t k = vp.predicates.size();
  constexpr int kNumCorrelations = std::size(kCorrelationRoles);

  auto pair_key = [](uint32_t i1, uint32_t i2) {
    return (static_cast<uint64_t>(i1) << 32) | i2;
  };

  // Pass 1: count |ExtVP_corr_p1|p2| for all non-empty combinations.
  std::unordered_map<uint64_t, uint64_t> counts[kNumCorrelations];
  sweep.ForEach([&](Correlation corr, uint32_t i1, uint32_t i2, size_t) {
    ++counts[static_cast<int>(corr)][pair_key(i1, i2)];
  });

  // Classify every combination and register statistics. selected[corr]
  // maps pair key -> output table and its SF (filled in pass 2).
  struct Selected {
    rdf::Table table;
    double sf;
  };
  std::unordered_map<uint64_t, Selected> selected[kNumCorrelations];
  for (const CorrelationRoles& roles : kCorrelationRoles) {
    const int c = static_cast<int>(roles.corr);
    // The number of combinations considered includes empty ones: all
    // ordered pairs (minus p1 == p2 for SS).
    build_stats.tables_considered +=
        k * k - (roles.corr == Correlation::kSS ? k : 0);
    for (const auto& [key, count] : counts[c]) {
      const uint32_t i1 = static_cast<uint32_t>(key >> 32);
      const uint32_t i2 = static_cast<uint32_t>(key & 0xffffffffu);
      const ExtVpVerdict verdict =
          ClassifyExtVp(count, vp.rows[i1].size(), options.sf_threshold);
      if (verdict.kind != ExtVpVerdict::kStored) {
        // A counted pair kept a row, so it is never kEmpty.
        if (verdict.kind == ExtVpVerdict::kEqualVp) {
          ++build_stats.tables_equal_vp;
        } else {
          ++build_stats.tables_pruned;
        }
        catalog->PutStatsOnly(
            ExtVpTableName(roles.corr, vp.predicates[i1], vp.predicates[i2]),
            count, verdict.sf);
        continue;
      }
      ++build_stats.tables_materialized;
      build_stats.tuples_materialized += count;
      rdf::Table table({"s", "o"});
      table.Reserve(count);
      selected[c].emplace(key, Selected{std::move(table), verdict.sf});
    }
  }
  build_stats.tables_empty =
      build_stats.tables_considered -
      (counts[0].size() + counts[1].size() + counts[2].size());

  // Pass 2: fill the selected tables in one more sweep, each in VP_p1's
  // row order.
  sweep.ForEach([&](Correlation corr, uint32_t i1, uint32_t i2, size_t r) {
    auto& tables = selected[static_cast<int>(corr)];
    auto it = tables.find(pair_key(i1, i2));
    if (it == tables.end()) return;
    const auto& [s, o] = vp.rows[i1][r];
    it->second.table.AppendRow({s, o});
  });

  for (const CorrelationRoles& roles : kCorrelationRoles) {
    for (auto& [key, out] : selected[static_cast<int>(roles.corr)]) {
      const TermId p1 = vp.predicates[key >> 32];
      const TermId p2 = vp.predicates[key & 0xffffffffu];
      S2RDF_RETURN_IF_ERROR(catalog->Put(ExtVpTableName(roles.corr, p1, p2),
                                         std::move(out.table), out.sf));
    }
  }

  // So the compiler can tell "combination empty" from "ExtVP never
  // built".
  catalog->PutStatsOnly(kExtVpMarker, 1, 1.0);

  build_stats.build_seconds = SecondsSince(start_time);
  return build_stats;
}

StatusOr<PropertyTableBuildStats> BuildPropertyTable(
    const rdf::Graph& graph, PropertyTableStrategy strategy,
    storage::Catalog* catalog) {
  PropertyTableBuildStats build_stats;
  VpRowData vp = CollectVpRows(graph);

  // subject -> predicate -> values.
  std::map<TermId, std::map<TermId, std::vector<TermId>>> by_subject;
  for (size_t i = 0; i < vp.predicates.size(); ++i) {
    for (const auto& [s, o] : vp.rows[i]) {
      by_subject[s][vp.predicates[i]].push_back(o);
    }
  }

  // A predicate is multi-valued if any subject carries >= 2 values.
  std::unordered_set<TermId> multi_valued;
  for (const auto& [s, preds] : by_subject) {
    for (const auto& [p, values] : preds) {
      if (values.size() > 1) multi_valued.insert(p);
    }
  }

  std::vector<TermId> inline_preds;
  std::vector<size_t> aux;  // Indices into vp of the auxiliary tables.
  for (size_t i = 0; i < vp.predicates.size(); ++i) {
    const TermId p = vp.predicates[i];
    bool is_multi = multi_valued.contains(p);
    if (strategy == PropertyTableStrategy::kAuxiliaryTables && is_multi) {
      build_stats.multi_valued.push_back(p);
      aux.push_back(i);
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

  for (size_t i : aux) {
    const VpRows& rows = vp.rows[i];
    rdf::Table table({"s", "o"});
    table.Reserve(rows.size());
    for (const auto& [s, o] : rows) table.AppendRow({s, o});
    build_stats.aux_tuples += rows.size();
    ++build_stats.aux_tables;
    S2RDF_RETURN_IF_ERROR(catalog->Put(PropertyAuxTableName(vp.predicates[i]),
                                       std::move(table), 1.0));
  }
  return build_stats;
}

}  // namespace s2rdf::core
