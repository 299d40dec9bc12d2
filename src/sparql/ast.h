#ifndef S2RDF_SPARQL_AST_H_
#define S2RDF_SPARQL_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sparql/expr.h"

// Abstract syntax for the SPARQL fragment S2RDF supports: the paper
// prototype's SPARQL 1.0 fragment (Sec. 6.1: BGPs, FILTER, OPTIONAL,
// UNION, DISTINCT, ORDER BY, LIMIT, OFFSET), the ASK, CONSTRUCT and
// DESCRIBE query forms, and the SPARQL 1.1 aggregates with GROUP BY,
// subqueries and VALUES blocks that the paper left for future work.

namespace s2rdf::sparql {

// One position of a triple pattern: either a variable or a bound term in
// canonical N-Triples form.
struct PatternTerm {
  enum class Kind { kVariable, kTerm };
  Kind kind = Kind::kTerm;
  // Variable name without '?', or the canonical term string.
  std::string value;

  static PatternTerm Var(std::string name) {
    return {Kind::kVariable, std::move(name)};
  }
  static PatternTerm Term(std::string canonical) {
    return {Kind::kTerm, std::move(canonical)};
  }
  bool is_variable() const { return kind == Kind::kVariable; }

  friend bool operator==(const PatternTerm& a, const PatternTerm& b) {
    return a.kind == b.kind && a.value == b.value;
  }
};

struct TriplePattern {
  PatternTerm subject;
  PatternTerm predicate;
  PatternTerm object;

  // Variables occurring in this pattern, in s/p/o order.
  std::vector<std::string> Variables() const;

  std::string ToString() const;

  friend bool operator==(const TriplePattern& a, const TriplePattern& b) {
    return a.subject == b.subject && a.predicate == b.predicate &&
           a.object == b.object;
  }
};

struct Query;

// SPARQL 1.1 VALUES block: inline solution data joined with the group.
struct InlineData {
  std::vector<std::string> variables;
  // Rows of canonical terms, aligned to `variables`.
  std::vector<std::vector<std::string>> rows;
};

// A group graph pattern: a BGP plus nested FILTER / OPTIONAL / UNION /
// sub-SELECT / VALUES.
struct GraphPattern {
  std::vector<TriplePattern> triples;
  std::vector<ExprPtr> filters;
  std::vector<GraphPattern> optionals;
  // Each element is one UNION chain: 2+ alternative group patterns.
  std::vector<std::vector<GraphPattern>> unions;
  // SPARQL 1.1 subqueries: `{ SELECT ... }` joined with the group; only
  // their projected variables are visible outside.
  std::vector<std::unique_ptr<Query>> subqueries;
  // SPARQL 1.1 VALUES blocks.
  std::vector<InlineData> values;

  GraphPattern() = default;
  GraphPattern(GraphPattern&&) = default;
  GraphPattern& operator=(GraphPattern&&) = default;

  bool IsPlainBgp() const {
    return filters.empty() && optionals.empty() && unions.empty() &&
           subqueries.empty();
  }

  // All variables bound anywhere in the pattern (BGP + nested groups +
  // subquery projections).
  std::vector<std::string> AllVariables() const;
};

// The query form (W3C SPARQL query types).
enum class QueryForm {
  kSelect,
  kAsk,
  kConstruct,  // Builds a graph from a template per solution.
  kDescribe,   // Concise bounded description of resources.
};

struct Query {
  QueryForm form = QueryForm::kSelect;
  bool distinct = false;
  // True for `SELECT *`.
  bool select_all = false;
  // Output columns in SELECT order: plain variable names and aggregate
  // aliases interleaved as written.
  std::vector<std::string> projection;
  // SPARQL 1.1 aggregates (non-empty makes this an aggregate query).
  std::vector<AggregateSpec> aggregates;
  std::vector<std::string> group_by;
  // CONSTRUCT template (triple patterns instantiated per solution).
  std::vector<TriplePattern> construct_template;
  // DESCRIBE targets: variables and/or constant terms.
  std::vector<PatternTerm> describe_targets;
  GraphPattern where;
  std::vector<SortKey> order_by;
  uint64_t offset = 0;
  uint64_t limit = kNoLimit;
};

}  // namespace s2rdf::sparql

#endif  // S2RDF_SPARQL_AST_H_
