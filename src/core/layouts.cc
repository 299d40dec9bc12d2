#include "core/layouts.h"

#include <iterator>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/clock.h"
#include "core/extvp_kernel.h"

namespace s2rdf::core {

namespace {

using rdf::TermId;

// The graph's deduplicated (s, o) rows per predicate, in first-appearance
// order, as VP tables: tables[i] holds predicates[i]'s. RDF graphs are
// sets, so the VP and property-table builders read this one deduped row
// stream, and the property table's auxiliary tables equal the VP tables.
struct VpTables {
  std::vector<TermId> predicates;
  std::vector<rdf::Table> tables;
};

VpTables CollectVpTables(const rdf::Graph& graph) {
  VpTables out;
  std::unordered_map<TermId, uint32_t> index;
  std::vector<std::unordered_set<uint64_t>> seen;
  for (const rdf::Triple& t : graph.triples()) {
    auto [it, added] = index.try_emplace(
        t.predicate, static_cast<uint32_t>(out.predicates.size()));
    if (added) {
      out.predicates.push_back(t.predicate);
      out.tables.emplace_back(SoColumns());
      seen.emplace_back();
    }
    uint64_t key = (static_cast<uint64_t>(t.subject) << 32) | t.object;
    if (!seen[it->second].insert(key).second) continue;
    out.tables[it->second].AppendRow({t.subject, t.object});
  }
  return out;
}

}  // namespace

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
  VpTables vp = CollectVpTables(graph);
  for (size_t i = 0; i < vp.predicates.size(); ++i) {
    S2RDF_RETURN_IF_ERROR(catalog->Put(VpTableName(vp.predicates[i]),
                                       std::move(vp.tables[i]), 1.0));
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

StatusOr<ExtVpBuildStats> BuildExtVpLayout(const rdf::Graph& graph,
                                           const ExtVpOptions& options,
                                           storage::Catalog* catalog) {
  auto start_time = MonotonicNow();
  ExtVpBuildStats build_stats;
  const std::shared_ptr<const storage::CatalogState> state = catalog->State();
  const std::vector<TermId> predicates = VpPredicates(*state);
  VpSource vp(catalog, *state, nullptr);
  S2RDF_ASSIGN_OR_RETURN(
      const std::vector<ExtVpPair> pairs,
      NonEmptyExtVpPairs(predicates, graph.dictionary().size(), &vp));
  DeltaMaintainer kernel(options.sf_threshold, catalog, *state, &vp, nullptr);
  for (const ExtVpPair& pair : pairs) {
    S2RDF_RETURN_IF_ERROR(kernel.MaintainPair(pair, /*gain_possible=*/true));
  }

  for (storage::TableUpdate& update : kernel.updates()) {
    if (update.table.has_value()) {
      ++build_stats.tables_materialized;
      build_stats.tuples_materialized += update.table->NumRows();
      S2RDF_RETURN_IF_ERROR(catalog->Put(
          update.name, std::move(*update.table), update.selectivity));
      continue;
    }
    // Statistics only: equal to VP_p1 (SF = 1) or pruned.
    ++(update.selectivity == 1.0 ? build_stats.tables_equal_vp
                                 : build_stats.tables_pruned);
    catalog->PutStatsOnly(update.name, update.rows, update.selectivity);
  }
  // The number of combinations considered includes empty ones: all
  // ordered pairs (minus p1 == p2 for SS).
  const uint64_t k = predicates.size();
  build_stats.tables_considered = std::size(kCorrelationRoles) * k * k - k;
  build_stats.tables_empty =
      build_stats.tables_considered - build_stats.tables_materialized -
      build_stats.tables_equal_vp - build_stats.tables_pruned;

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
  VpTables vp = CollectVpTables(graph);

  // subject -> predicate -> values.
  std::map<TermId, std::map<TermId, std::vector<TermId>>> by_subject;
  for (size_t i = 0; i < vp.predicates.size(); ++i) {
    const rdf::Table& rows = vp.tables[i];
    for (size_t r = 0; r < rows.NumRows(); ++r) {
      by_subject[rows.At(r, 0)][vp.predicates[i]].push_back(rows.At(r, 1));
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
    build_stats.aux_tuples += vp.tables[i].NumRows();
    ++build_stats.aux_tables;
    S2RDF_RETURN_IF_ERROR(catalog->Put(PropertyAuxTableName(vp.predicates[i]),
                                       std::move(vp.tables[i]), 1.0));
  }
  return build_stats;
}

}  // namespace s2rdf::core
