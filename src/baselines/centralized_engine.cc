#include "baselines/centralized_engine.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/clock.h"
#include "engine/operators.h"
#include "sparql/parser.h"

namespace s2rdf::baselines {

namespace {

using rdf::TermId;
using sparql::PatternTerm;
using sparql::TriplePattern;

// Resolves a pattern position against the current variable bindings.
std::optional<TermId> Resolve(
    const PatternTerm& term, const rdf::Dictionary& dict,
    const std::unordered_map<std::string, int>& var_cols,
    const rdf::Table& bindings, size_t row) {
  if (!term.is_variable()) {
    std::optional<TermId> id = dict.Find(term.value);
    // An absent constant matches nothing; the caller checks this via a
    // sentinel that can never appear in the data.
    return id.has_value() ? id : std::optional<TermId>(rdf::kNullTermId);
  }
  auto it = var_cols.find(term.value);
  if (it == var_cols.end()) return std::nullopt;
  return bindings.At(row, static_cast<size_t>(it->second));
}

}  // namespace

StatusOr<CentralizedResult> CentralizedBgpEngine::ExecuteBgp(
    const std::vector<TriplePattern>& bgp) const {
  auto start = MonotonicNow();
  if (bgp.empty()) return InvalidArgumentError("empty BGP");
  CentralizedResult result;

  // Greedy ordering: repeatedly pick the remaining pattern with the most
  // positions bound (constants + already-bound variables), breaking ties
  // by static index cardinality — the classic index-nested-loop planner.
  std::vector<size_t> remaining(bgp.size());
  for (size_t i = 0; i < bgp.size(); ++i) remaining[i] = i;
  std::vector<size_t> order;
  std::vector<std::string> bound_vars;
  auto static_count = [&](const TriplePattern& tp) {
    IndexPattern pattern;
    if (!tp.subject.is_variable()) {
      pattern.subject = dict_.Find(tp.subject.value).value_or(
          rdf::kNullTermId);
    }
    if (!tp.predicate.is_variable()) {
      pattern.predicate = dict_.Find(tp.predicate.value).value_or(
          rdf::kNullTermId);
    }
    if (!tp.object.is_variable()) {
      pattern.object = dict_.Find(tp.object.value).value_or(
          rdf::kNullTermId);
    }
    return store_.CountMatches(pattern);
  };
  while (!remaining.empty()) {
    size_t best_pos = 0;
    int best_bound = -1;
    uint64_t best_count = ~0ull;
    for (size_t i = 0; i < remaining.size(); ++i) {
      const TriplePattern& tp = bgp[remaining[i]];
      int bound = 0;
      for (const PatternTerm* term :
           {&tp.subject, &tp.predicate, &tp.object}) {
        if (!term->is_variable() ||
            std::find(bound_vars.begin(), bound_vars.end(), term->value) !=
                bound_vars.end()) {
          ++bound;
        }
      }
      uint64_t count = static_count(tp);
      if (bound > best_bound || (bound == best_bound && count < best_count)) {
        best_pos = i;
        best_bound = bound;
        best_count = count;
      }
    }
    size_t chosen = remaining[best_pos];
    order.push_back(chosen);
    remaining.erase(remaining.begin() + static_cast<long>(best_pos));
    for (const std::string& v : bgp[chosen].Variables()) {
      if (std::find(bound_vars.begin(), bound_vars.end(), v) ==
          bound_vars.end()) {
        bound_vars.push_back(v);
      }
    }
  }

  // Index nested loop: extend the binding table one pattern at a time.
  rdf::Table bindings(std::vector<std::string>{});
  bindings.AppendRow(std::vector<TermId>{});  // One empty binding.
  std::unordered_map<std::string, int> var_cols;

  for (size_t tp_index : order) {
    const TriplePattern& tp = bgp[tp_index];
    // New output schema: existing columns + this pattern's new variables.
    std::vector<std::string> new_names = bindings.column_names();
    std::vector<std::pair<const PatternTerm*, TermId rdf::Triple::*>>
        positions = {{&tp.subject, &rdf::Triple::subject},
                     {&tp.predicate, &rdf::Triple::predicate},
                     {&tp.object, &rdf::Triple::object}};
    std::vector<std::pair<std::string, TermId rdf::Triple::*>> new_vars;
    for (const auto& [term, member] : positions) {
      if (term->is_variable() && !var_cols.contains(term->value)) {
        bool already = false;
        for (const auto& [name, m] : new_vars) {
          if (name == term->value) already = true;
        }
        if (!already) {
          new_vars.emplace_back(term->value, member);
          new_names.push_back(term->value);
        }
      }
    }
    rdf::Table next(new_names);

    for (size_t row = 0; row < bindings.NumRows(); ++row) {
      IndexPattern pattern;
      bool impossible = false;
      auto fill = [&](const PatternTerm& term,
                      std::optional<TermId>* slot) {
        std::optional<TermId> id =
            Resolve(term, dict_, var_cols, bindings, row);
        if (id.has_value()) {
          if (*id == rdf::kNullTermId && !term.is_variable()) {
            impossible = true;
          }
          *slot = id;
        }
      };
      fill(tp.subject, &pattern.subject);
      fill(tp.predicate, &pattern.predicate);
      fill(tp.object, &pattern.object);
      if (impossible) continue;

      ++result.index_lookups;
      std::span<const rdf::Triple> matches = store_.Scan(pattern);
      result.scanned_triples += matches.size();
      for (const rdf::Triple& t : matches) {
        // Repeated variables within the pattern must agree.
        bool consistent = true;
        std::unordered_map<std::string, TermId> locals;
        for (const auto& [term, member] : positions) {
          if (!term->is_variable()) continue;
          TermId value = t.*member;
          auto it = locals.find(term->value);
          if (it != locals.end() && it->second != value) {
            consistent = false;
            break;
          }
          locals[term->value] = value;
        }
        if (!consistent) continue;
        std::vector<TermId> out_row;
        out_row.reserve(new_names.size());
        for (size_t c = 0; c < bindings.NumColumns(); ++c) {
          out_row.push_back(bindings.At(row, c));
        }
        for (const auto& [name, member] : new_vars) {
          out_row.push_back(locals[name]);
        }
        next.AppendRow(out_row);
      }
    }
    bindings = std::move(next);
    for (size_t c = 0; c < bindings.NumColumns(); ++c) {
      var_cols[bindings.column_names()[c]] = static_cast<int>(c);
    }
  }

  result.table = std::move(bindings);
  result.wall_ms = MillisSince(start);
  return result;
}

StatusOr<CentralizedResult> CentralizedBgpEngine::Execute(
    std::string_view sparql) const {
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
        "centralized baseline supports plain BGP queries only");
  }
  S2RDF_ASSIGN_OR_RETURN(CentralizedResult result,
                         ExecuteBgp(query.where.triples));
  rdf::Table table = std::move(result.table);
  for (const sparql::ExprPtr& filter : query.where.filters) {
    table = engine::Filter(table, *filter, dict_, nullptr);
  }
  std::vector<std::string> projection =
      query.select_all ? query.where.AllVariables() : query.projection;
  table = engine::Project(table, projection);
  if (query.distinct) table = engine::Distinct(table, nullptr);
  if (!query.order_by.empty()) {
    table = engine::OrderBy(table, query.order_by, dict_);
  }
  if (query.offset > 0 || query.limit != sparql::kNoLimit) {
    table = engine::Slice(table, query.offset, query.limit);
  }
  result.table = std::move(table);
  result.wall_ms = MillisSince(start);
  return result;
}

}  // namespace s2rdf::baselines
