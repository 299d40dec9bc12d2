#include "core/compiler.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "core/cardinality.h"
#include "core/cost_model.h"

namespace s2rdf::core {

namespace {

using engine::PlanNode;
using engine::PlanPtr;
using sparql::GraphPattern;
using sparql::PatternTerm;
using sparql::TriplePattern;

// Number of bound (non-variable) positions — the primary join-order key
// of Algorithm 4 ("patterns with more bound values are executed first").
int BoundCount(const TriplePattern& tp) {
  int n = 0;
  if (!tp.subject.is_variable()) ++n;
  if (!tp.predicate.is_variable()) ++n;
  if (!tp.object.is_variable()) ++n;
  return n;
}

// The pattern's variables in s/p/o order, deduplicated.
std::vector<std::string> PatternVariables(const TriplePattern& tp) {
  std::vector<std::string> vars;
  for (const std::string& v : tp.Variables()) {
    if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
      vars.push_back(v);
    }
  }
  return vars;
}

// Applies every pending filter whose variables are all bound AND
// available as columns of `plan` (the two differ under bushy trees:
// a variable may be bound by a sibling subtree this plan cannot see).
PlanPtr ApplyReadyFilters(PlanPtr plan,
                          const std::unordered_set<std::string>& available,
                          std::vector<const sparql::Expr*>* pending) {
  for (auto it = pending->begin(); it != pending->end();) {
    bool ready = true;
    for (const std::string& v : (*it)->ReferencedVariables()) {
      if (!available.contains(v)) {
        ready = false;
        break;
      }
    }
    if (ready) {
      plan = PlanNode::FilterNode(std::move(plan), (*it)->Clone());
      it = pending->erase(it);
    } else {
      ++it;
    }
  }
  return plan;
}

}  // namespace

QueryCompiler::QueryCompiler(
    std::shared_ptr<const storage::CatalogState> state,
    const rdf::Dictionary* dict, CompilerOptions options)
    : state_(std::move(state)),
      dict_(*dict),
      options_(std::move(options)),
      optimizer_(Optimizer::Create(options_.optimizer)) {}

QueryCompiler::QueryCompiler(const storage::Catalog* catalog,
                             const rdf::Dictionary* dict,
                             CompilerOptions options)
    : QueryCompiler(catalog->State(), dict, std::move(options)) {}

StatusOr<PlanPtr> QueryCompiler::ScanForPattern(
    const TriplePattern& tp, const TableChoice& choice) const {
  std::vector<std::pair<std::string, std::string>> selections;
  std::vector<std::pair<std::string, std::string>> equal_selections;
  std::vector<std::pair<std::string, std::string>> projections;

  // Position -> base column name. VP/ExtVP tables have columns (s, o)
  // with the predicate implied; the triples table has (s, p, o).
  struct Position {
    const PatternTerm* term;
    const char* column;
    bool in_table;
  };
  const Position positions[3] = {
      {&tp.subject, "s", true},
      {&tp.predicate, "p", choice.is_triples_table},
      {&tp.object, "o", true},
  };

  std::unordered_set<std::string> seen_vars;
  std::vector<std::pair<std::string, std::string>> var_first_column;
  for (const Position& pos : positions) {
    if (!pos.in_table) continue;  // Bound predicate implied by the table.
    if (pos.term->is_variable()) {
      // Repeated variable inside one pattern -> equal-column selection.
      bool repeated = false;
      for (const auto& [var, column] : var_first_column) {
        if (var == pos.term->value) {
          equal_selections.emplace_back(column, pos.column);
          repeated = true;
          break;
        }
      }
      if (!repeated) {
        var_first_column.emplace_back(pos.term->value, pos.column);
        projections.emplace_back(pos.column, pos.term->value);
      }
    } else {
      selections.emplace_back(pos.column, pos.term->value);
    }
  }

  engine::PlanPtr scan =
      PlanNode::Scan(choice.table_name, std::move(selections),
                     std::move(projections), std::move(equal_selections));
  if (choice.row_filter != nullptr) {
    scan->row_filter = choice.row_filter;
    scan->row_filter_label = choice.row_filter_label;
  }
  scan->fallback_table = choice.fallback_table;
  scan->scan_layout = choice.layout_label;
  scan->scan_sf = choice.sf;
  scan->scan_degraded = choice.degraded;
  return scan;
}

StatusOr<BgpAnalysis> QueryCompiler::Analyze(
    const std::vector<TriplePattern>& bgp) const {
  if (bgp.empty()) {
    return InvalidArgumentError("empty basic graph pattern");
  }
  BgpAnalysis analysis;
  analysis.bgp = bgp;
  analysis.patterns.reserve(bgp.size());

  const std::vector<PatternIds> ids = ResolveBgp(bgp, dict_, *state_);
  CardinalityEstimator estimator(*state_, bgp, ids);
  CostModel cost_model;

  // Algorithm 1 per pattern, plus the estimator's view of the scan.
  for (size_t i = 0; i < bgp.size(); ++i) {
    S2RDF_ASSIGN_OR_RETURN(
        TableChoice choice,
        SelectTable(i, bgp, ids, options_.layout,
                    options_.use_statistics_shortcut, *state_,
                    options_.bitmap_store));
    if (choice.degraded && !noted_degraded_) {
      noted_degraded_ = true;
      state_->catalog->NoteDegradedQuery();
    }
    if (choice.empty_result) {
      // Statistics prove emptiness (Algorithm 3, line 4); the remaining
      // patterns are left unanalyzed.
      analysis.empty_result = true;
      return analysis;
    }
    PatternInfo info;
    info.scan_rows = estimator.ScanRows(i, choice);
    info.scan_cost = cost_model.ScanCost(info.scan_rows);
    info.bound_count = BoundCount(bgp[i]);
    info.variables = PatternVariables(bgp[i]);
    info.choice = std::move(choice);
    analysis.patterns.push_back(std::move(info));
  }

  // Join graph: one edge per pattern pair sharing >= 1 variable, with
  // SF-derived selectivity and per-side survival fractions.
  for (size_t i = 0; i < bgp.size(); ++i) {
    for (size_t j = i + 1; j < bgp.size(); ++j) {
      JoinEdge edge;
      edge.a = i;
      edge.b = j;
      for (const std::string& v : analysis.patterns[i].variables) {
        const auto& jv = analysis.patterns[j].variables;
        if (std::find(jv.begin(), jv.end(), v) != jv.end()) {
          if (edge.shared_vars == 0) edge.shared_var = v;
          ++edge.shared_vars;
        }
      }
      if (edge.shared_vars == 0) continue;
      const PatternInfo& pa = analysis.patterns[i];
      const PatternInfo& pb = analysis.patterns[j];
      edge.keep_a = estimator.KeepFraction(i, pa.choice, j);
      edge.keep_b = estimator.KeepFraction(j, pb.choice, i);
      const double out = CardinalityEstimator::JoinRows(
          pa.scan_rows, edge.keep_a, pb.scan_rows, edge.keep_b);
      const double denom =
          std::max(pa.scan_rows, 1e-6) * std::max(pb.scan_rows, 1e-6);
      edge.selectivity = std::clamp(out / denom, 1e-12, 1.0);
      analysis.edges.push_back(std::move(edge));
    }
  }
  return analysis;
}

StatusOr<PlanPtr> QueryCompiler::LowerTree(
    const BgpAnalysis& analysis, const JoinTree& tree, bool is_right_leaf,
    std::vector<const sparql::Expr*>* pending,
    std::unordered_set<std::string>* available) const {
  // Filter placement rule: ready filters are applied after every
  // lowered node EXCEPT leaves that are right children of joins. For
  // the left-deep trees paper mode produces this is exactly the old
  // fold — filters after the first scan and after each join — so paper
  // plans stay byte-identical to the pre-pipeline compiler. For bushy
  // trees it additionally lets subtree-local filters run early.
  if (tree.is_leaf()) {
    const size_t i = static_cast<size_t>(tree.pattern);
    const PatternInfo& info = analysis.patterns[i];
    S2RDF_ASSIGN_OR_RETURN(PlanPtr plan,
                           ScanForPattern(analysis.bgp[i], info.choice));
    plan->estimated_rows = info.scan_rows;
    plan->estimated_cost = info.scan_cost;
    // Semi-join reducers: cut the scan down by the projected join
    // column of selective neighbors before the scan meets a real join.
    double rows = info.scan_rows;
    for (int r : tree.reducers) {
      const size_t j = static_cast<size_t>(r);
      const JoinEdge* edge = FindEdge(analysis, i, j);
      if (edge == nullptr) {
        return InternalError("semi-join reducer without a join edge");
      }
      S2RDF_ASSIGN_OR_RETURN(
          PlanPtr reducer,
          ScanForPattern(analysis.bgp[j], analysis.patterns[j].choice));
      reducer->estimated_rows = analysis.patterns[j].scan_rows;
      reducer->estimated_cost = analysis.patterns[j].scan_cost;
      PlanPtr projected = PlanNode::ProjectNode(
          std::move(reducer), std::vector<std::string>{edge->shared_var});
      rows *= edge->a == i ? edge->keep_a : edge->keep_b;
      plan = PlanNode::SemiJoinNode(std::move(plan), std::move(projected));
      plan->estimated_rows = rows;
    }
    for (const std::string& v : info.variables) available->insert(v);
    if (!is_right_leaf) {
      plan = ApplyReadyFilters(std::move(plan), *available, pending);
    }
    return plan;
  }

  std::unordered_set<std::string> left_vars;
  std::unordered_set<std::string> right_vars;
  S2RDF_ASSIGN_OR_RETURN(
      PlanPtr left,
      LowerTree(analysis, *tree.left, /*is_right_leaf=*/false, pending,
                &left_vars));
  S2RDF_ASSIGN_OR_RETURN(
      PlanPtr right,
      LowerTree(analysis, *tree.right, tree.right->is_leaf(), pending,
                &right_vars));
  available->insert(left_vars.begin(), left_vars.end());
  available->insert(right_vars.begin(), right_vars.end());
  PlanPtr plan = PlanNode::Join(std::move(left), std::move(right));
  plan->join_algo = tree.algo == JoinAlgoChoice::kSortMerge
                        ? PlanNode::JoinAlgo::kSortMerge
                        : PlanNode::JoinAlgo::kHash;
  plan->estimated_rows = tree.est_rows;
  plan->estimated_cost = tree.est_cost;
  return ApplyReadyFilters(std::move(plan), *available, pending);
}

StatusOr<PlanPtr> QueryCompiler::Plan(
    const BgpAnalysis& analysis, const JoinTree& tree,
    const std::vector<const sparql::Expr*>& filters) const {
  std::vector<const sparql::Expr*> pending(filters.begin(), filters.end());
  std::unordered_set<std::string> available;
  S2RDF_ASSIGN_OR_RETURN(
      PlanPtr plan,
      LowerTree(analysis, tree, /*is_right_leaf=*/false, &pending,
                &available));
  // Filters that never became ready (variables not bound by this BGP)
  // still apply — on rows where they evaluate to error they drop the
  // row, matching FILTER semantics over the group.
  for (const sparql::Expr* filter : pending) {
    plan = PlanNode::FilterNode(std::move(plan), filter->Clone());
  }
  return plan;
}

StatusOr<PlanPtr> QueryCompiler::CompileBgp(
    const std::vector<TriplePattern>& bgp,
    const std::vector<const sparql::Expr*>& filters) const {
  S2RDF_ASSIGN_OR_RETURN(BgpAnalysis analysis, Analyze(bgp));
  if (analysis.empty_result) {
    // Empty relation with the BGP's variables as schema.
    std::unordered_set<std::string> seen;
    std::vector<std::string> columns;
    for (const TriplePattern& tp : bgp) {
      for (const std::string& v : tp.Variables()) {
        if (seen.insert(v).second) columns.push_back(v);
      }
    }
    return PlanNode::Empty(std::move(columns));
  }
  S2RDF_ASSIGN_OR_RETURN(JoinTreePtr tree, optimizer_->Optimize(analysis));
  return Plan(analysis, *tree, filters);
}

StatusOr<PlanPtr> QueryCompiler::CompileGroup(
    const GraphPattern& pattern) const {
  PlanPtr plan;

  // Filter pushdown: a group-level FILTER whose variables are all bound
  // by this group's BGP can run inside the BGP join pipeline. Filters
  // referencing UNION- or OPTIONAL-bound variables stay at group level.
  std::vector<const sparql::Expr*> pushable;
  std::vector<const sparql::Expr*> group_level;
  if (options_.push_filters && !pattern.triples.empty()) {
    std::unordered_set<std::string> bgp_vars;
    for (const TriplePattern& tp : pattern.triples) {
      for (const std::string& v : tp.Variables()) bgp_vars.insert(v);
    }
    for (const sparql::ExprPtr& filter : pattern.filters) {
      bool covered = true;
      for (const std::string& v : filter->ReferencedVariables()) {
        if (!bgp_vars.contains(v)) {
          covered = false;
          break;
        }
      }
      (covered ? pushable : group_level).push_back(filter.get());
    }
  } else {
    for (const sparql::ExprPtr& filter : pattern.filters) {
      group_level.push_back(filter.get());
    }
  }

  if (!pattern.triples.empty()) {
    S2RDF_ASSIGN_OR_RETURN(plan, CompileBgp(pattern.triples, pushable));
  }

  // UNION chains join with the rest of the group.
  for (const auto& chain : pattern.unions) {
    PlanPtr union_plan;
    for (const GraphPattern& alt : chain) {
      S2RDF_ASSIGN_OR_RETURN(PlanPtr alt_plan, CompileGroup(alt));
      union_plan = union_plan == nullptr
                       ? std::move(alt_plan)
                       : PlanNode::Union(std::move(union_plan),
                                         std::move(alt_plan));
    }
    plan = plan == nullptr
               ? std::move(union_plan)
               : PlanNode::Join(std::move(plan), std::move(union_plan));
  }

  // VALUES blocks join their inline rows with the rest of the group.
  for (const sparql::InlineData& data : pattern.values) {
    engine::PlanPtr inline_plan =
        PlanNode::InlineDataNode(data.variables, data.rows);
    plan = plan == nullptr
               ? std::move(inline_plan)
               : PlanNode::Join(std::move(plan), std::move(inline_plan));
  }

  // SPARQL 1.1 subqueries join with the rest of the group; only their
  // projected variables are visible.
  for (const auto& sub : pattern.subqueries) {
    S2RDF_ASSIGN_OR_RETURN(PlanPtr sub_plan, Compile(*sub));
    plan = plan == nullptr
               ? std::move(sub_plan)
               : PlanNode::Join(std::move(plan), std::move(sub_plan));
  }

  if (plan == nullptr) {
    return InvalidArgumentError("group graph pattern has no triple patterns");
  }

  // OPTIONAL -> left outer join. Filters directly inside the optional
  // group become the join condition (they may reference outer
  // variables), per the SPARQL LeftJoin(P1, P2, C) semantics.
  for (const GraphPattern& optional : pattern.optionals) {
    PlanPtr opt_plan;
    sparql::ExprPtr condition;
    if (optional.unions.empty() && optional.optionals.empty()) {
      // Plain optional BGP: its filters become the join condition so
      // they can reference outer variables.
      S2RDF_ASSIGN_OR_RETURN(opt_plan, CompileBgp(optional.triples));
      for (const sparql::ExprPtr& f : optional.filters) {
        condition = condition == nullptr
                        ? f->Clone()
                        : sparql::Expr::And(std::move(condition), f->Clone());
      }
    } else {
      // Nested structure: compile the whole group; its filters then only
      // see variables bound inside the optional part.
      S2RDF_ASSIGN_OR_RETURN(opt_plan, CompileGroup(optional));
    }
    plan = PlanNode::LeftJoin(std::move(plan), std::move(opt_plan),
                              std::move(condition));
  }

  for (const sparql::Expr* filter : group_level) {
    plan = PlanNode::FilterNode(std::move(plan), filter->Clone());
  }
  return plan;
}

StatusOr<PlanPtr> QueryCompiler::Compile(const sparql::Query& query) const {
  S2RDF_ASSIGN_OR_RETURN(PlanPtr plan, CompileGroup(query.where));

  if (query.form == sparql::QueryForm::kAsk) {
    // ASK: any single solution answers the query.
    return PlanNode::SliceNode(std::move(plan), 0, 1);
  }

  // SPARQL 1.1 aggregation: GROUP BY and/or aggregate select items.
  const bool is_aggregate =
      !query.aggregates.empty() || !query.group_by.empty();
  if (is_aggregate) {
    if (query.select_all) {
      return InvalidArgumentError(
          "SELECT * cannot be combined with aggregates/GROUP BY");
    }
    // Every plain projected variable must be a grouping key.
    for (const std::string& name : query.projection) {
      bool is_alias = false;
      for (const sparql::AggregateSpec& spec : query.aggregates) {
        if (spec.output_name == name) is_alias = true;
      }
      if (is_alias) continue;
      if (std::find(query.group_by.begin(), query.group_by.end(), name) ==
          query.group_by.end()) {
        return InvalidArgumentError(
            "variable ?" + name +
            " must appear in GROUP BY or inside an aggregate");
      }
    }
    plan = PlanNode::AggregateNode(std::move(plan), query.group_by,
                                   query.aggregates);
  }

  std::vector<std::string> projection =
      query.select_all ? query.where.AllVariables() : query.projection;
  plan = PlanNode::ProjectNode(std::move(plan), std::move(projection));

  if (query.distinct) plan = PlanNode::DistinctNode(std::move(plan));
  if (!query.order_by.empty()) {
    plan = PlanNode::OrderByNode(std::move(plan), query.order_by);
  }
  if (query.offset > 0 || query.limit != sparql::kNoLimit) {
    plan = PlanNode::SliceNode(std::move(plan), query.offset, query.limit);
  }
  return plan;
}

}  // namespace s2rdf::core
