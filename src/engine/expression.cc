#include "engine/expression.h"

#include <regex>

#include "common/check.h"

namespace s2rdf::engine {

ExprEvaluator::ExprEvaluator(const Expr& expr, const Table& table,
                             const rdf::Dictionary& dict)
    : expr_(expr), table_(table), dict_(dict) {}

Value ExprEvaluator::LeafValue(const Expr& node, size_t row) const {
  if (node.kind() == Expr::Kind::kConst) {
    return ValueFromCanonicalTerm(node.name());
  }
  S2RDF_DCHECK(node.kind() == Expr::Kind::kVar);
  int col = table_.ColumnIndex(node.name());
  if (col < 0) return Value();  // Unprojected variable: unbound.
  TermId id = table_.At(row, static_cast<size_t>(col));
  if (id == kNullTermId) return Value();
  return ValueFromCanonicalTerm(dict_.Decode(id));
}

Truth ExprEvaluator::Eval(size_t row) const { return EvalNode(expr_, row); }

Truth ExprEvaluator::EvalNode(const Expr& node, size_t row) const {
  switch (node.kind()) {
    case Expr::Kind::kCompare: {
      Value a = LeafValue(*node.left(), row);
      Value b = LeafValue(*node.right(), row);
      if (a.kind == ValueKind::kNull || b.kind == ValueKind::kNull) {
        return Truth::kError;
      }
      bool comparable = true;
      int c = CompareValues(a, b, &comparable);
      switch (node.compare_op()) {
        case CompareOp::kEq:
          // Equality across kinds is well-defined (RDF term equality).
          return c == 0 ? Truth::kTrue : Truth::kFalse;
        case CompareOp::kNe:
          return c != 0 ? Truth::kTrue : Truth::kFalse;
        default:
          break;
      }
      if (!comparable) return Truth::kError;
      switch (node.compare_op()) {
        case CompareOp::kLt:
          return c < 0 ? Truth::kTrue : Truth::kFalse;
        case CompareOp::kLe:
          return c <= 0 ? Truth::kTrue : Truth::kFalse;
        case CompareOp::kGt:
          return c > 0 ? Truth::kTrue : Truth::kFalse;
        case CompareOp::kGe:
          return c >= 0 ? Truth::kTrue : Truth::kFalse;
        default:
          return Truth::kError;
      }
    }
    case Expr::Kind::kAnd: {
      Truth a = EvalNode(*node.left(), row);
      Truth b = EvalNode(*node.right(), row);
      if (a == Truth::kFalse || b == Truth::kFalse) return Truth::kFalse;
      if (a == Truth::kError || b == Truth::kError) return Truth::kError;
      return Truth::kTrue;
    }
    case Expr::Kind::kOr: {
      Truth a = EvalNode(*node.left(), row);
      Truth b = EvalNode(*node.right(), row);
      if (a == Truth::kTrue || b == Truth::kTrue) return Truth::kTrue;
      if (a == Truth::kError || b == Truth::kError) return Truth::kError;
      return Truth::kFalse;
    }
    case Expr::Kind::kNot: {
      Truth a = EvalNode(*node.left(), row);
      if (a == Truth::kError) return Truth::kError;
      return a == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
    }
    case Expr::Kind::kBound: {
      int col = table_.ColumnIndex(node.name());
      bool bound = col >= 0 &&
                   table_.At(row, static_cast<size_t>(col)) != kNullTermId;
      return bound ? Truth::kTrue : Truth::kFalse;
    }
    case Expr::Kind::kRegex: {
      int col = table_.ColumnIndex(node.name());
      if (col < 0) return Truth::kError;
      TermId id = table_.At(row, static_cast<size_t>(col));
      if (id == kNullTermId) return Truth::kError;
      Value v = ValueFromCanonicalTerm(dict_.Decode(id));
      auto flags = std::regex::ECMAScript;
      if (node.case_insensitive()) flags |= std::regex::icase;
      // Compiled per row for simplicity; FILTER regex is rare in the
      // paper's workloads so this is not on any measured path.
      std::regex re(node.left()->name(), flags);
      return std::regex_search(v.text, re) ? Truth::kTrue : Truth::kFalse;
    }
    case Expr::Kind::kVar:
    case Expr::Kind::kConst: {
      // Effective boolean value of a bare term.
      Value v = LeafValue(node, row);
      switch (v.kind) {
        case ValueKind::kNull:
          return Truth::kError;
        case ValueKind::kBool:
          return v.bool_value ? Truth::kTrue : Truth::kFalse;
        case ValueKind::kInt:
          return v.int_value != 0 ? Truth::kTrue : Truth::kFalse;
        case ValueKind::kDouble:
          return v.double_value != 0.0 ? Truth::kTrue : Truth::kFalse;
        case ValueKind::kString:
          return v.text.empty() ? Truth::kFalse : Truth::kTrue;
        default:
          return Truth::kError;
      }
    }
  }
  return Truth::kError;
}

}  // namespace s2rdf::engine
