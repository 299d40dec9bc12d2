#ifndef S2RDF_ENGINE_EXPRESSION_H_
#define S2RDF_ENGINE_EXPRESSION_H_

#include <cstddef>

#include "engine/value.h"
#include "rdf/dictionary.h"
#include "rdf/table.h"
#include "sparql/expr.h"

// Evaluation of SPARQL FILTER expressions (sparql/expr.h) over solution
// mappings (table rows whose columns are SPARQL variables). Evaluation
// follows SPARQL's three-valued logic: a type error makes the enclosing
// comparison "error", which FILTER treats as false, while && / || / !
// propagate errors per the W3C semantics.

namespace s2rdf::engine {

using rdf::kNullTermId;
using rdf::Table;
using rdf::TermId;
using sparql::CompareOp;
using sparql::Expr;
using sparql::ExprPtr;

// Tri-state result of expression evaluation.
enum class Truth { kFalse, kTrue, kError };

// Binds an expression to a table schema once, then evaluates rows cheaply.
class ExprEvaluator {
 public:
  // `table` and `dict` must outlive the evaluator.
  ExprEvaluator(const Expr& expr, const Table& table,
                const rdf::Dictionary& dict);

  // Evaluates the expression against row `row`.
  Truth Eval(size_t row) const;

  // FILTER keeps rows where the expression is exactly true.
  bool Keep(size_t row) const { return Eval(row) == Truth::kTrue; }

 private:
  Truth EvalNode(const Expr& node, size_t row) const;
  Value LeafValue(const Expr& node, size_t row) const;

  const Expr& expr_;
  const Table& table_;
  const rdf::Dictionary& dict_;
};

}  // namespace s2rdf::engine

#endif  // S2RDF_ENGINE_EXPRESSION_H_
