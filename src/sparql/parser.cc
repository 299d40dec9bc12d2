#include "sparql/parser.h"

#include <map>

#include "common/strings.h"
#include "rdf/term.h"
#include "sparql/lexer.h"

namespace s2rdf::sparql {

namespace {

constexpr std::string_view kXsdInteger =
    "http://www.w3.org/2001/XMLSchema#integer";
constexpr std::string_view kXsdDouble =
    "http://www.w3.org/2001/XMLSchema#double";
constexpr std::string_view kXsdBoolean =
    "http://www.w3.org/2001/XMLSchema#boolean";
constexpr std::string_view kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Query> Run() {
    S2RDF_RETURN_IF_ERROR(ParsePrologue());
    Query query;
    S2RDF_RETURN_IF_ERROR(ParseSelect(&query));
    if (Cur().kind != TokenKind::kEof) {
      return Error("trailing tokens after query");
    }
    return query;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t ahead = 1) const {
    size_t i = pos_ + ahead;
    return tokens_[i < tokens_.size() ? i : tokens_.size() - 1];
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  Status Error(const std::string& message) const {
    return InvalidArgumentError("parse error at line " +
                                std::to_string(Cur().line) + " near '" +
                                Cur().text + "': " + message);
  }

  Status Expect(TokenKind kind, std::string_view text) {
    if (Cur().kind != kind || Cur().text != text) {
      return Error("expected '" + std::string(text) + "'");
    }
    Advance();
    return Status::Ok();
  }

  Status ParsePrologue() {
    while (Cur().IsKeyword("PREFIX")) {
      Advance();
      if (Cur().kind != TokenKind::kPrefixedName ||
          !EndsWith(Cur().text, ":")) {
        return Error("expected prefix name ending in ':'");
      }
      std::string prefix = Cur().text.substr(0, Cur().text.size() - 1);
      Advance();
      if (Cur().kind != TokenKind::kIriRef) {
        return Error("expected IRI after PREFIX");
      }
      prefixes_[prefix] = Cur().text;
      Advance();
    }
    return Status::Ok();
  }

  Status ParseSelect(Query* query) {
    if (Cur().IsKeyword("ASK")) {
      Advance();
      query->form = QueryForm::kAsk;
      query->select_all = true;
      if (Cur().IsKeyword("WHERE")) Advance();
      return ParseGroupGraphPattern(&query->where);
    }
    if (Cur().IsKeyword("CONSTRUCT")) {
      Advance();
      query->form = QueryForm::kConstruct;
      query->select_all = true;
      S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, "{"));
      GraphPattern template_pattern;
      while (!Cur().IsPunct("}")) {
        if (Cur().kind == TokenKind::kEof) {
          return Error("unterminated CONSTRUCT template");
        }
        S2RDF_RETURN_IF_ERROR(ParseTriplesSameSubject(&template_pattern));
        if (Cur().IsPunct(".")) Advance();
      }
      Advance();  // '}'
      query->construct_template = std::move(template_pattern.triples);
      if (query->construct_template.empty()) {
        return Error("CONSTRUCT template is empty");
      }
      if (Cur().IsKeyword("WHERE")) Advance();
      S2RDF_RETURN_IF_ERROR(ParseGroupGraphPattern(&query->where));
      return ParseSolutionModifiers(query);
    }
    if (Cur().IsKeyword("DESCRIBE")) {
      Advance();
      query->form = QueryForm::kDescribe;
      query->select_all = true;
      while (true) {
        if (Cur().kind == TokenKind::kVariable) {
          query->describe_targets.push_back(PatternTerm::Var(Cur().text));
          Advance();
          continue;
        }
        if (Cur().kind == TokenKind::kIriRef) {
          query->describe_targets.push_back(
              PatternTerm::Term("<" + Cur().text + ">"));
          Advance();
          continue;
        }
        if (Cur().kind == TokenKind::kPrefixedName &&
            !StartsWith(Cur().text, "_:")) {
          S2RDF_ASSIGN_OR_RETURN(std::string iri,
                                 ExpandPrefixedName(Cur().text));
          query->describe_targets.push_back(
              PatternTerm::Term(std::move(iri)));
          Advance();
          continue;
        }
        break;
      }
      if (query->describe_targets.empty()) {
        return Error("DESCRIBE needs at least one target");
      }
      if (Cur().IsKeyword("WHERE")) Advance();
      if (Cur().IsPunct("{")) {
        S2RDF_RETURN_IF_ERROR(ParseGroupGraphPattern(&query->where));
        return ParseSolutionModifiers(query);
      }
      return Status::Ok();
    }
    S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kKeyword, "SELECT"));
    if (Cur().IsKeyword("DISTINCT")) {
      query->distinct = true;
      Advance();
    } else if (Cur().IsKeyword("REDUCED")) {
      Advance();  // REDUCED is treated as a no-op, like most engines.
    }
    if (Cur().IsPunct("*")) {
      query->select_all = true;
      Advance();
    } else {
      while (true) {
        if (Cur().kind == TokenKind::kVariable) {
          query->projection.push_back(Cur().text);
          Advance();
          continue;
        }
        if (Cur().IsPunct("(")) {
          S2RDF_RETURN_IF_ERROR(ParseAggregateSelectItem(query));
          continue;
        }
        break;
      }
      if (query->projection.empty()) {
        return Error("SELECT needs '*' or at least one variable");
      }
    }
    if (Cur().IsKeyword("WHERE")) Advance();
    S2RDF_RETURN_IF_ERROR(ParseGroupGraphPattern(&query->where));
    return ParseSolutionModifiers(query);
  }

  // Parses `( COUNT(DISTINCT ?v) AS ?alias )` and friends.
  Status ParseAggregateSelectItem(Query* query) {
    S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, "("));
    AggregateSpec spec;
    if (Cur().IsKeyword("COUNT")) {
      spec.fn = AggregateSpec::Fn::kCount;
    } else if (Cur().IsKeyword("SUM")) {
      spec.fn = AggregateSpec::Fn::kSum;
    } else if (Cur().IsKeyword("AVG")) {
      spec.fn = AggregateSpec::Fn::kAvg;
    } else if (Cur().IsKeyword("MIN")) {
      spec.fn = AggregateSpec::Fn::kMin;
    } else if (Cur().IsKeyword("MAX")) {
      spec.fn = AggregateSpec::Fn::kMax;
    } else if (Cur().IsKeyword("SAMPLE")) {
      spec.fn = AggregateSpec::Fn::kSample;
    } else {
      return Error("expected aggregate function");
    }
    Advance();
    S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, "("));
    if (Cur().IsKeyword("DISTINCT")) {
      spec.distinct = true;
      Advance();
    }
    if (Cur().IsPunct("*")) {
      if (spec.fn != AggregateSpec::Fn::kCount) {
        return Error("'*' is only valid inside COUNT");
      }
      spec.fn = AggregateSpec::Fn::kCountStar;
      Advance();
    } else if (Cur().kind == TokenKind::kVariable) {
      spec.input_var = Cur().text;
      Advance();
    } else {
      return Error("expected '*' or a variable in aggregate");
    }
    S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, ")"));
    S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kKeyword, "AS"));
    if (Cur().kind != TokenKind::kVariable) {
      return Error("expected alias variable after AS");
    }
    spec.output_name = Cur().text;
    Advance();
    S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, ")"));
    query->projection.push_back(spec.output_name);
    query->aggregates.push_back(std::move(spec));
    return Status::Ok();
  }

  Status ParseSolutionModifiers(Query* query) {
    if (Cur().IsKeyword("GROUP")) {
      Advance();
      S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kKeyword, "BY"));
      while (Cur().kind == TokenKind::kVariable) {
        query->group_by.push_back(Cur().text);
        Advance();
      }
      if (query->group_by.empty()) {
        return Error("GROUP BY needs at least one variable");
      }
    }
    if (Cur().IsKeyword("HAVING")) {
      return Error("HAVING is not supported");
    }
    if (Cur().IsKeyword("ORDER")) {
      Advance();
      S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kKeyword, "BY"));
      while (true) {
        bool ascending = true;
        if (Cur().IsKeyword("ASC")) {
          Advance();
          S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, "("));
          if (Cur().kind != TokenKind::kVariable) {
            return Error("expected variable in ASC()");
          }
          query->order_by.push_back({Cur().text, true});
          Advance();
          S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, ")"));
          continue;
        }
        if (Cur().IsKeyword("DESC")) {
          Advance();
          S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, "("));
          if (Cur().kind != TokenKind::kVariable) {
            return Error("expected variable in DESC()");
          }
          query->order_by.push_back({Cur().text, false});
          Advance();
          S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, ")"));
          continue;
        }
        if (Cur().kind == TokenKind::kVariable) {
          query->order_by.push_back({Cur().text, ascending});
          Advance();
          continue;
        }
        break;
      }
      if (query->order_by.empty()) {
        return Error("ORDER BY needs at least one sort key");
      }
    }
    // LIMIT and OFFSET may appear in either order.
    for (int i = 0; i < 2; ++i) {
      if (Cur().IsKeyword("LIMIT")) {
        Advance();
        if (Cur().kind != TokenKind::kNumber) {
          return Error("expected number after LIMIT");
        }
        long long n = 0;
        if (!ParseInt64(Cur().text, &n) || n < 0) {
          return Error("invalid LIMIT");
        }
        query->limit = static_cast<uint64_t>(n);
        Advance();
      } else if (Cur().IsKeyword("OFFSET")) {
        Advance();
        if (Cur().kind != TokenKind::kNumber) {
          return Error("expected number after OFFSET");
        }
        long long n = 0;
        if (!ParseInt64(Cur().text, &n) || n < 0) {
          return Error("invalid OFFSET");
        }
        query->offset = static_cast<uint64_t>(n);
        Advance();
      }
    }
    return Status::Ok();
  }

  Status ParseGroupGraphPattern(GraphPattern* pattern) {
    S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, "{"));
    while (!Cur().IsPunct("}")) {
      if (Cur().kind == TokenKind::kEof) {
        return Error("unterminated group graph pattern");
      }
      if (Cur().IsKeyword("FILTER")) {
        Advance();
        ExprPtr expr;
        S2RDF_RETURN_IF_ERROR(ParseConstraint(&expr));
        pattern->filters.push_back(std::move(expr));
      } else if (Cur().IsKeyword("OPTIONAL")) {
        Advance();
        GraphPattern optional;
        S2RDF_RETURN_IF_ERROR(ParseGroupGraphPattern(&optional));
        pattern->optionals.push_back(std::move(optional));
      } else if (Cur().IsKeyword("VALUES")) {
        Advance();
        InlineData data;
        S2RDF_RETURN_IF_ERROR(ParseInlineData(&data));
        pattern->values.push_back(std::move(data));
      } else if (Cur().IsPunct("{") && Peek().IsKeyword("SELECT")) {
        // SPARQL 1.1 subquery.
        Advance();  // '{'
        auto sub = std::make_unique<Query>();
        S2RDF_RETURN_IF_ERROR(ParseSelect(sub.get()));
        S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, "}"));
        pattern->subqueries.push_back(std::move(sub));
      } else if (Cur().IsPunct("{")) {
        std::vector<GraphPattern> chain;
        GraphPattern first;
        S2RDF_RETURN_IF_ERROR(ParseGroupGraphPattern(&first));
        chain.push_back(std::move(first));
        while (Cur().IsKeyword("UNION")) {
          Advance();
          GraphPattern alt;
          S2RDF_RETURN_IF_ERROR(ParseGroupGraphPattern(&alt));
          chain.push_back(std::move(alt));
        }
        if (chain.size() == 1) {
          // A lone nested group joins with the enclosing pattern.
          MergeInto(pattern, std::move(chain[0]));
        } else {
          pattern->unions.push_back(std::move(chain));
        }
      } else {
        S2RDF_RETURN_IF_ERROR(ParseTriplesSameSubject(pattern));
      }
      if (Cur().IsPunct(".")) Advance();
    }
    Advance();  // '}'
    return Status::Ok();
  }

  static void MergeInto(GraphPattern* dst, GraphPattern src) {
    for (auto& tp : src.triples) dst->triples.push_back(std::move(tp));
    for (auto& f : src.filters) dst->filters.push_back(std::move(f));
    for (auto& o : src.optionals) dst->optionals.push_back(std::move(o));
    for (auto& u : src.unions) dst->unions.push_back(std::move(u));
  }

  // Parses `VALUES ?x { t1 t2 }` and `VALUES (?x ?y) { (t1 t2) ... }`.
  // UNDEF is rejected (the engine's joins have no "matches anything"
  // binding).
  Status ParseInlineData(InlineData* data) {
    bool multi = false;
    if (Cur().IsPunct("(")) {
      multi = true;
      Advance();
      while (Cur().kind == TokenKind::kVariable) {
        data->variables.push_back(Cur().text);
        Advance();
      }
      S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, ")"));
    } else if (Cur().kind == TokenKind::kVariable) {
      data->variables.push_back(Cur().text);
      Advance();
    }
    if (data->variables.empty()) {
      return Error("VALUES needs at least one variable");
    }
    S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, "{"));
    while (!Cur().IsPunct("}")) {
      if (Cur().kind == TokenKind::kEof) {
        return Error("unterminated VALUES block");
      }
      if (Cur().IsKeyword("UNDEF")) {
        return Error("UNDEF in VALUES is not supported");
      }
      std::vector<std::string> row;
      if (multi) {
        S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, "("));
        while (!Cur().IsPunct(")")) {
          if (Cur().IsKeyword("UNDEF")) {
            return Error("UNDEF in VALUES is not supported");
          }
          PatternTerm term;
          S2RDF_RETURN_IF_ERROR(ParsePatternTerm(&term, false));
          if (term.is_variable()) {
            return Error("VALUES rows must contain constants");
          }
          row.push_back(std::move(term.value));
        }
        Advance();  // ')'
      } else {
        PatternTerm term;
        S2RDF_RETURN_IF_ERROR(ParsePatternTerm(&term, false));
        if (term.is_variable()) {
          return Error("VALUES rows must contain constants");
        }
        row.push_back(std::move(term.value));
      }
      if (row.size() != data->variables.size()) {
        return Error("VALUES row arity does not match the variable list");
      }
      data->rows.push_back(std::move(row));
    }
    Advance();  // '}'
    return Status::Ok();
  }

  Status ParseTriplesSameSubject(GraphPattern* pattern) {
    PatternTerm subject;
    S2RDF_RETURN_IF_ERROR(ParsePatternTerm(&subject, /*predicate=*/false));
    while (true) {
      PatternTerm predicate;
      S2RDF_RETURN_IF_ERROR(ParsePatternTerm(&predicate, /*predicate=*/true));
      while (true) {
        PatternTerm object;
        S2RDF_RETURN_IF_ERROR(ParsePatternTerm(&object, /*predicate=*/false));
        pattern->triples.push_back({subject, predicate, object});
        if (Cur().IsPunct(",")) {
          Advance();
          continue;
        }
        break;
      }
      if (Cur().IsPunct(";")) {
        Advance();
        // A dangling ';' before '.' or '}' is legal SPARQL.
        if (Cur().IsPunct(".") || Cur().IsPunct("}")) break;
        continue;
      }
      break;
    }
    return Status::Ok();
  }

  StatusOr<std::string> ExpandPrefixedName(const std::string& pname) {
    size_t colon = pname.find(':');
    if (colon == std::string::npos) {
      return InvalidArgumentError("expected prefixed name: " + pname);
    }
    std::string prefix = pname.substr(0, colon);
    std::string local = pname.substr(colon + 1);
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return InvalidArgumentError("undeclared prefix: '" + prefix + ":'");
    }
    return "<" + it->second + local + ">";
  }

  // Canonicalizes a literal token (already in N-Triples-ish form except
  // for possible prefixed datatype).
  StatusOr<std::string> CanonicalizeString(const std::string& text) {
    size_t caret = text.rfind("^^");
    if (caret != std::string::npos && caret + 2 < text.size() &&
        text[caret + 2] != '<') {
      S2RDF_ASSIGN_OR_RETURN(std::string dt,
                             ExpandPrefixedName(text.substr(caret + 2)));
      return text.substr(0, caret + 2) + dt;
    }
    return text;
  }

  Status ParsePatternTerm(PatternTerm* out, bool predicate) {
    switch (Cur().kind) {
      case TokenKind::kVariable:
        *out = PatternTerm::Var(Cur().text);
        Advance();
        return Status::Ok();
      case TokenKind::kIriRef:
        *out = PatternTerm::Term("<" + Cur().text + ">");
        Advance();
        return Status::Ok();
      case TokenKind::kPrefixedName: {
        if (StartsWith(Cur().text, "_:")) {
          *out = PatternTerm::Term(Cur().text);
          Advance();
          return Status::Ok();
        }
        S2RDF_ASSIGN_OR_RETURN(std::string iri,
                               ExpandPrefixedName(Cur().text));
        *out = PatternTerm::Term(std::move(iri));
        Advance();
        return Status::Ok();
      }
      case TokenKind::kKeyword:
        if (predicate && Cur().text == "A") {
          *out = PatternTerm::Term("<" + std::string(kRdfType) + ">");
          Advance();
          return Status::Ok();
        }
        return Error("unexpected keyword in triple pattern");
      case TokenKind::kString: {
        S2RDF_ASSIGN_OR_RETURN(std::string canonical,
                               CanonicalizeString(Cur().text));
        *out = PatternTerm::Term(std::move(canonical));
        Advance();
        return Status::Ok();
      }
      case TokenKind::kNumber: {
        *out = PatternTerm::Term(CanonicalNumber(Cur().text));
        Advance();
        return Status::Ok();
      }
      case TokenKind::kBoolean: {
        *out = PatternTerm::Term("\"" + Cur().text + "\"^^<" +
                                 std::string(kXsdBoolean) + ">");
        Advance();
        return Status::Ok();
      }
      default:
        return Error("expected term or variable");
    }
  }

  static std::string CanonicalNumber(const std::string& digits) {
    bool is_double = digits.find('.') != std::string::npos ||
                     digits.find('e') != std::string::npos ||
                     digits.find('E') != std::string::npos;
    return "\"" + digits + "\"^^<" +
           std::string(is_double ? kXsdDouble : kXsdInteger) + ">";
  }

  // --- FILTER constraints ---------------------------------------------

  Status ParseConstraint(ExprPtr* out) {
    if (Cur().IsPunct("(")) {
      Advance();
      S2RDF_RETURN_IF_ERROR(ParseOrExpression(out));
      return Expect(TokenKind::kPunct, ")");
    }
    return ParseBuiltinCall(out);
  }

  Status ParseBuiltinCall(ExprPtr* out) {
    if (Cur().IsKeyword("REGEX")) {
      Advance();
      S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, "("));
      if (Cur().kind != TokenKind::kVariable) {
        return Error("REGEX expects a variable first argument");
      }
      std::string var = Cur().text;
      Advance();
      S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, ","));
      if (Cur().kind != TokenKind::kString) {
        return Error("REGEX expects a string pattern");
      }
      // The lexer wraps literal text in quotes; strip them.
      std::string pattern = Cur().text;
      size_t close = pattern.rfind('"');
      pattern = pattern.substr(1, close - 1);
      Advance();
      bool icase = false;
      if (Cur().IsPunct(",")) {
        Advance();
        if (Cur().kind != TokenKind::kString) {
          return Error("REGEX flags must be a string");
        }
        icase = Cur().text.find('i') != std::string::npos;
        Advance();
      }
      S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, ")"));
      *out = Expr::Regex(std::move(var), std::move(pattern), icase);
      return Status::Ok();
    }
    if (Cur().IsKeyword("BOUND")) {
      Advance();
      S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, "("));
      if (Cur().kind != TokenKind::kVariable) {
        return Error("BOUND expects a variable");
      }
      std::string var = Cur().text;
      Advance();
      S2RDF_RETURN_IF_ERROR(Expect(TokenKind::kPunct, ")"));
      *out = Expr::Bound(std::move(var));
      return Status::Ok();
    }
    return Error("expected '(' or builtin call after FILTER");
  }

  Status ParseOrExpression(ExprPtr* out) {
    S2RDF_RETURN_IF_ERROR(ParseAndExpression(out));
    while (Cur().IsOperator("||")) {
      Advance();
      ExprPtr rhs;
      S2RDF_RETURN_IF_ERROR(ParseAndExpression(&rhs));
      *out = Expr::Or(std::move(*out), std::move(rhs));
    }
    return Status::Ok();
  }

  Status ParseAndExpression(ExprPtr* out) {
    S2RDF_RETURN_IF_ERROR(ParseUnaryExpression(out));
    while (Cur().IsOperator("&&")) {
      Advance();
      ExprPtr rhs;
      S2RDF_RETURN_IF_ERROR(ParseUnaryExpression(&rhs));
      *out = Expr::And(std::move(*out), std::move(rhs));
    }
    return Status::Ok();
  }

  Status ParseUnaryExpression(ExprPtr* out) {
    if (Cur().IsOperator("!")) {
      Advance();
      ExprPtr inner;
      S2RDF_RETURN_IF_ERROR(ParseUnaryExpression(&inner));
      *out = Expr::Not(std::move(inner));
      return Status::Ok();
    }
    if (Cur().IsPunct("(")) {
      Advance();
      S2RDF_RETURN_IF_ERROR(ParseOrExpression(out));
      return Expect(TokenKind::kPunct, ")");
    }
    if (Cur().IsKeyword("REGEX") || Cur().IsKeyword("BOUND")) {
      return ParseBuiltinCall(out);
    }
    return ParseComparison(out);
  }

  Status ParseComparison(ExprPtr* out) {
    ExprPtr left;
    S2RDF_RETURN_IF_ERROR(ParsePrimary(&left));
    if (Cur().kind == TokenKind::kOperator) {
      CompareOp op;
      const std::string& text = Cur().text;
      if (text == "=") {
        op = CompareOp::kEq;
      } else if (text == "!=") {
        op = CompareOp::kNe;
      } else if (text == "<") {
        op = CompareOp::kLt;
      } else if (text == "<=") {
        op = CompareOp::kLe;
      } else if (text == ">") {
        op = CompareOp::kGt;
      } else if (text == ">=") {
        op = CompareOp::kGe;
      } else {
        return Error("unexpected operator in comparison");
      }
      Advance();
      ExprPtr right;
      S2RDF_RETURN_IF_ERROR(ParsePrimary(&right));
      *out = Expr::Compare(op, std::move(left), std::move(right));
      return Status::Ok();
    }
    *out = std::move(left);  // Bare term: effective boolean value.
    return Status::Ok();
  }

  Status ParsePrimary(ExprPtr* out) {
    switch (Cur().kind) {
      case TokenKind::kVariable:
        *out = Expr::Var(Cur().text);
        Advance();
        return Status::Ok();
      case TokenKind::kIriRef:
        *out = Expr::Const("<" + Cur().text + ">");
        Advance();
        return Status::Ok();
      case TokenKind::kPrefixedName: {
        S2RDF_ASSIGN_OR_RETURN(std::string iri,
                               ExpandPrefixedName(Cur().text));
        *out = Expr::Const(std::move(iri));
        Advance();
        return Status::Ok();
      }
      case TokenKind::kString: {
        S2RDF_ASSIGN_OR_RETURN(std::string canonical,
                               CanonicalizeString(Cur().text));
        *out = Expr::Const(std::move(canonical));
        Advance();
        return Status::Ok();
      }
      case TokenKind::kNumber:
        *out = Expr::Const(CanonicalNumber(Cur().text));
        Advance();
        return Status::Ok();
      case TokenKind::kBoolean:
        *out = Expr::Const("\"" + Cur().text + "\"^^<" +
                                   std::string(kXsdBoolean) + ">");
        Advance();
        return Status::Ok();
      default:
        return Error("expected expression operand");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::map<std::string, std::string> prefixes_;
};

}  // namespace

StatusOr<Query> ParseQuery(std::string_view text) {
  S2RDF_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.Run();
}

}  // namespace s2rdf::sparql
