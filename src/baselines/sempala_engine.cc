#include "baselines/sempala_engine.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>

#include "common/clock.h"
#include "core/layout_names.h"
#include "engine/operators.h"
#include "sparql/parser.h"

namespace s2rdf::baselines {

namespace {

using sparql::PatternTerm;
using sparql::TriplePattern;

// Key identifying a star group: the subject position.
std::string GroupKey(const PatternTerm& subject) {
  return (subject.is_variable() ? "v:" : "t:") + subject.value;
}

}  // namespace

StatusOr<std::unique_ptr<SempalaEngine>> SempalaEngine::Create(
    const rdf::Graph* graph, SempalaOptions options) {
  auto engine =
      std::unique_ptr<SempalaEngine>(new SempalaEngine(graph, options));
  S2RDF_ASSIGN_OR_RETURN(
      engine->build_stats_,
      core::BuildPropertyTable(*graph, options.strategy, &engine->catalog_));
  for (rdf::TermId p : engine->build_stats_.single_valued) {
    engine->inline_columns_[p] = core::VpTableName(p);
  }
  for (rdf::TermId p : engine->build_stats_.multi_valued) {
    engine->aux_predicates_.insert(p);
  }
  return engine;
}

StatusOr<rdf::Table> SempalaEngine::EvaluateStarGroup(
    const std::vector<const TriplePattern*>& group,
    engine::ExecContext* ctx) {
  const rdf::Dictionary& dict = graph_.dictionary();
  const PatternTerm& subject = group[0]->subject;
  const bool subject_is_var = subject.is_variable();
  // The subject column name in every produced relation.
  const std::string subject_var = subject_is_var ? subject.value : "__s";

  // Partition the group's patterns: first use of an inlined predicate is
  // answered from the PT scan; auxiliary predicates and repeated uses of
  // the same predicate need separate subject joins.
  std::vector<const TriplePattern*> pt_patterns;
  std::vector<const TriplePattern*> join_patterns;
  std::unordered_set<rdf::TermId> used_columns;
  for (const TriplePattern* tp : group) {
    if (tp->predicate.is_variable()) {
      return UnimplementedError(
          "Sempala baseline requires bound predicates");
    }
    std::optional<rdf::TermId> p = dict.Find(tp->predicate.value);
    if (!p.has_value()) {
      // Predicate absent from the data: the star has no results.
      rdf::Table empty({subject_var});
      return empty;
    }
    if (inline_columns_.contains(*p) && used_columns.insert(*p).second) {
      pt_patterns.push_back(tp);
    } else {
      join_patterns.push_back(tp);
    }
  }

  rdf::Table result(std::vector<std::string>{});
  bool have_result = false;

  if (!pt_patterns.empty()) {
    S2RDF_ASSIGN_OR_RETURN(std::shared_ptr<const rdf::Table> pt,
                           catalog_.GetTable(core::PropertyTableName()));
    engine::ScanSpec spec;
    // Track first column of each variable for repeated-variable checks.
    std::vector<std::pair<std::string, int>> var_first;
    auto bind_var = [&](const std::string& var, int col) {
      for (const auto& [v, first_col] : var_first) {
        if (v == var) {
          spec.equal_columns.emplace_back(first_col, col);
          return;
        }
      }
      var_first.emplace_back(var, col);
      spec.projections.emplace_back(col, var);
    };

    int s_col = pt->ColumnIndex("s");
    if (subject_is_var) {
      bind_var(subject_var, s_col);
    } else {
      spec.conditions.emplace_back(
          s_col, dict.Find(subject.value).value_or(rdf::kNullTermId));
    }
    for (const TriplePattern* tp : pt_patterns) {
      rdf::TermId p = *dict.Find(tp->predicate.value);
      int col = pt->ColumnIndex(inline_columns_.at(p));
      if (tp->object.is_variable()) {
        spec.not_null_columns.push_back(col);
        bind_var(tp->object.value, col);
      } else {
        spec.conditions.emplace_back(
            col,
            dict.Find(tp->object.value).value_or(rdf::kNullTermId));
      }
    }
    result = engine::ScanSelectProject(*pt, spec, ctx);
    // Under row duplication the cross product introduces duplicate
    // solutions for the projected subset; dedup restores set semantics
    // (the SELECT DISTINCT of the paper's Fig. 7).
    if (options_.strategy == core::PropertyTableStrategy::kDuplication) {
      result = engine::Distinct(result, ctx);
    }
    have_result = true;
  }

  // Auxiliary / repeated predicates: per-pattern scans joined on the
  // subject.
  for (const TriplePattern* tp : join_patterns) {
    rdf::TermId p = *dict.Find(tp->predicate.value);
    std::shared_ptr<const rdf::Table> base;
    int s_col = 0;
    int o_col = 1;
    if (aux_predicates_.contains(p)) {
      S2RDF_ASSIGN_OR_RETURN(
          base, catalog_.GetTable(core::PropertyAuxTableName(p)));
    } else {
      // Repeated inlined predicate: self-join the PT on this column.
      S2RDF_ASSIGN_OR_RETURN(base,
                             catalog_.GetTable(core::PropertyTableName()));
      s_col = base->ColumnIndex("s");
      o_col = base->ColumnIndex(inline_columns_.at(p));
    }
    engine::ScanSpec spec;
    if (subject_is_var) {
      spec.projections.emplace_back(s_col, subject_var);
    } else {
      spec.conditions.emplace_back(
          s_col, dict.Find(subject.value).value_or(rdf::kNullTermId));
    }
    if (tp->object.is_variable()) {
      spec.not_null_columns.push_back(o_col);
      if (tp->object.value == subject_var && subject_is_var) {
        spec.equal_columns.emplace_back(s_col, o_col);
      } else {
        spec.projections.emplace_back(o_col, tp->object.value);
      }
    } else {
      spec.conditions.emplace_back(
          o_col, dict.Find(tp->object.value).value_or(rdf::kNullTermId));
    }
    rdf::Table scan = engine::ScanSelectProject(*base, spec, ctx);
    if (!aux_predicates_.contains(p) &&
        options_.strategy == core::PropertyTableStrategy::kDuplication) {
      scan = engine::Distinct(scan, ctx);
    }
    if (!subject_is_var && scan.NumColumns() == 0) {
      // Fully-bound pattern: existence check.
      if (scan.NumRows() == 0) {
        return rdf::Table(result.column_names());
      }
      continue;
    }
    result = have_result ? engine::HashJoin(result, scan, ctx)
                         : std::move(scan);
    have_result = true;
  }

  if (!have_result) {
    return InternalError("star group produced no relations");
  }
  return result;
}

StatusOr<SempalaResult> SempalaEngine::Execute(std::string_view sparql) {
  auto start = MonotonicNow();
  S2RDF_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql));
  if (!query.aggregates.empty() || !query.group_by.empty() ||
      !query.where.subqueries.empty() || !query.where.values.empty() ||
      query.form != sparql::QueryForm::kSelect) {
    return UnimplementedError(
        "baseline engines do not support SPARQL 1.1 aggregates or "
        "subqueries");
  }
  if (!query.where.optionals.empty() || !query.where.unions.empty()) {
    return UnimplementedError(
        "Sempala baseline supports plain BGP queries only");
  }
  if (query.where.triples.empty()) {
    return InvalidArgumentError("empty BGP");
  }

  // Triple-group decomposition: patterns sharing a subject form a star.
  std::vector<std::string> group_order;
  std::map<std::string, std::vector<const TriplePattern*>> groups;
  for (const TriplePattern& tp : query.where.triples) {
    std::string key = GroupKey(tp.subject);
    if (!groups.contains(key)) group_order.push_back(key);
    groups[key].push_back(&tp);
  }

  engine::ExecContext ctx;
  ctx.num_partitions = options_.num_partitions;
  SempalaResult result;
  result.star_groups = groups.size();

  // Evaluate groups, then join smallest-first avoiding cross joins.
  std::vector<rdf::Table> group_tables;
  for (const std::string& key : group_order) {
    S2RDF_ASSIGN_OR_RETURN(rdf::Table t,
                           EvaluateStarGroup(groups[key], &ctx));
    group_tables.push_back(std::move(t));
  }
  std::vector<size_t> remaining(group_tables.size());
  for (size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;
  auto shares_column = [&](const rdf::Table& a, const rdf::Table& b) {
    for (const std::string& name : b.column_names()) {
      if (a.ColumnIndex(name) >= 0) return true;
    }
    return false;
  };
  // Start with the smallest group.
  std::sort(remaining.begin(), remaining.end(), [&](size_t a, size_t b) {
    return group_tables[a].NumRows() < group_tables[b].NumRows();
  });
  rdf::Table joined = std::move(group_tables[remaining[0]]);
  remaining.erase(remaining.begin());
  while (!remaining.empty()) {
    size_t pick = remaining.size();
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (shares_column(joined, group_tables[remaining[i]])) {
        pick = i;
        break;
      }
    }
    if (pick == remaining.size()) pick = 0;  // Forced cross join.
    joined = engine::HashJoin(joined, group_tables[remaining[pick]], &ctx);
    remaining.erase(remaining.begin() + static_cast<long>(pick));
  }

  const rdf::Dictionary& dict = graph_.dictionary();
  for (const sparql::ExprPtr& filter : query.where.filters) {
    joined = engine::Filter(joined, *filter, dict, &ctx);
  }
  std::vector<std::string> projection =
      query.select_all ? query.where.AllVariables() : query.projection;
  joined = engine::Project(joined, projection);
  if (query.distinct) joined = engine::Distinct(joined, &ctx);
  if (!query.order_by.empty()) {
    joined = engine::OrderBy(joined, query.order_by, dict);
  }
  if (query.offset > 0 || query.limit != sparql::kNoLimit) {
    joined = engine::Slice(joined, query.offset, query.limit);
  }

  ctx.metrics.output_tuples = joined.NumRows();
  result.table = std::move(joined);
  result.metrics = ctx.metrics;
  result.wall_ms = MillisSince(start);
  return result;
}

}  // namespace s2rdf::baselines
