#include "sparql/expr.h"

namespace s2rdf::sparql {

ExprPtr Expr::Var(std::string name) {
  auto e = ExprPtr(new Expr(Kind::kVar));
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Const(std::string canonical_term) {
  auto e = ExprPtr(new Expr(Kind::kConst));
  e->name_ = std::move(canonical_term);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr left, ExprPtr right) {
  auto e = ExprPtr(new Expr(Kind::kCompare));
  e->compare_op_ = op;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

ExprPtr Expr::And(ExprPtr left, ExprPtr right) {
  auto e = ExprPtr(new Expr(Kind::kAnd));
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

ExprPtr Expr::Or(ExprPtr left, ExprPtr right) {
  auto e = ExprPtr(new Expr(Kind::kOr));
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

ExprPtr Expr::Not(ExprPtr operand) {
  auto e = ExprPtr(new Expr(Kind::kNot));
  e->left_ = std::move(operand);
  return e;
}

ExprPtr Expr::Bound(std::string var) {
  auto e = ExprPtr(new Expr(Kind::kBound));
  e->name_ = std::move(var);
  return e;
}

ExprPtr Expr::Regex(std::string var, std::string pattern,
                    bool case_insensitive) {
  auto e = ExprPtr(new Expr(Kind::kRegex));
  e->name_ = std::move(var);
  e->left_ = Expr::Const(std::move(pattern));
  e->case_insensitive_ = case_insensitive;
  return e;
}

namespace {
void CollectVars(const Expr& node, std::vector<std::string>* out) {
  switch (node.kind()) {
    case Expr::Kind::kVar:
    case Expr::Kind::kBound:
    case Expr::Kind::kRegex:
      out->push_back(node.name());
      break;
    case Expr::Kind::kConst:
      break;
    default:
      if (node.left() != nullptr) CollectVars(*node.left(), out);
      if (node.right() != nullptr) CollectVars(*node.right(), out);
  }
}

std::string OpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}
}  // namespace

std::vector<std::string> Expr::ReferencedVariables() const {
  std::vector<std::string> out;
  CollectVars(*this, &out);
  return out;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kVar:
      return "?" + name_;
    case Kind::kConst:
      return name_;
    case Kind::kCompare:
      return "(" + left_->ToString() + " " + OpName(compare_op_) + " " +
             right_->ToString() + ")";
    case Kind::kAnd:
      return "(" + left_->ToString() + " && " + right_->ToString() + ")";
    case Kind::kOr:
      return "(" + left_->ToString() + " || " + right_->ToString() + ")";
    case Kind::kNot:
      return "!" + left_->ToString();
    case Kind::kBound:
      return "BOUND(?" + name_ + ")";
    case Kind::kRegex:
      return "REGEX(?" + name_ + ", \"" + left_->name() + "\")";
  }
  return "?";
}

ExprPtr Expr::Clone() const {
  auto e = ExprPtr(new Expr(kind_));
  e->name_ = name_;
  e->compare_op_ = compare_op_;
  e->case_insensitive_ = case_insensitive_;
  if (left_ != nullptr) e->left_ = left_->Clone();
  if (right_ != nullptr) e->right_ = right_->Clone();
  return e;
}

}  // namespace s2rdf::sparql
