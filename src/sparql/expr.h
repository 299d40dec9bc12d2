#ifndef S2RDF_SPARQL_EXPR_H_
#define S2RDF_SPARQL_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

// The parts of a query the parser builds and the engine executes as
// given: FILTER expression trees, aggregate specs, ORDER BY keys and the
// LIMIT sentinel. Evaluation (engine/expression.h) and the operators
// that consume them (engine/operators.h, engine/aggregate.h) live in the
// engine.

namespace s2rdf::sparql {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

// Boolean filter expression over solution mappings (table rows whose
// columns are SPARQL variables).
class Expr {
 public:
  enum class Kind { kVar, kConst, kCompare, kAnd, kOr, kNot, kBound, kRegex };

  // Leaf: a SPARQL variable reference (name without '?').
  static ExprPtr Var(std::string name);
  // Leaf: a constant term in canonical N-Triples form.
  static ExprPtr Const(std::string canonical_term);
  // Comparison of two sub-expressions (both must be leaves).
  static ExprPtr Compare(CompareOp op, ExprPtr left, ExprPtr right);
  static ExprPtr And(ExprPtr left, ExprPtr right);
  static ExprPtr Or(ExprPtr left, ExprPtr right);
  static ExprPtr Not(ExprPtr operand);
  // BOUND(?var).
  static ExprPtr Bound(std::string var);
  // REGEX(?var, "pattern") with ECMAScript syntax, optional "i" flag.
  static ExprPtr Regex(std::string var, std::string pattern,
                       bool case_insensitive);

  Kind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  CompareOp compare_op() const { return compare_op_; }
  bool case_insensitive() const { return case_insensitive_; }
  const Expr* left() const { return left_.get(); }
  const Expr* right() const { return right_.get(); }

  // Variables referenced anywhere in this expression.
  std::vector<std::string> ReferencedVariables() const;

  // Renders a SPARQL-ish debug form, e.g. "(?x > \"5\"^^xsd:int)".
  std::string ToString() const;

  ExprPtr Clone() const;

 private:
  explicit Expr(Kind kind) : kind_(kind) {}

  Kind kind_;
  std::string name_;           // Variable name, constant text, or pattern.
  CompareOp compare_op_ = CompareOp::kEq;
  bool case_insensitive_ = false;
  ExprPtr left_;
  ExprPtr right_;
};

// One SPARQL 1.1 aggregate of the SELECT clause.
struct AggregateSpec {
  enum class Fn { kCountStar, kCount, kSum, kAvg, kMin, kMax, kSample };

  Fn fn = Fn::kCountStar;
  // Input variable (unused for kCountStar).
  std::string input_var;
  // Output column name (the AS variable).
  std::string output_name;
  bool distinct = false;
};

// One ORDER BY key.
struct SortKey {
  std::string column;
  bool ascending = true;
};

// LIMIT of a query without one: keeps all remaining rows.
inline constexpr uint64_t kNoLimit = ~0ull;

}  // namespace s2rdf::sparql

#endif  // S2RDF_SPARQL_EXPR_H_
