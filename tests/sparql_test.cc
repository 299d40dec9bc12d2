#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sparql/expr.h"
#include "sparql/lexer.h"
#include "sparql/parser.h"

namespace s2rdf::sparql {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT ?x WHERE { ?x <http://p> \"v\" . }");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kVariable);
  EXPECT_EQ((*tokens)[1].text, "x");
  // 2: WHERE, 3: '{', 4: ?x.
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kIriRef);
  EXPECT_EQ((*tokens)[5].text, "http://p");
  EXPECT_EQ((*tokens)[6].kind, TokenKind::kString);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEof);
}

TEST(LexerTest, IriVsLessThan) {
  auto tokens = Tokenize("FILTER (?x < 5) ?y <http://iri>");
  ASSERT_TRUE(tokens.ok());
  bool saw_lt = false;
  bool saw_iri = false;
  for (const Token& t : *tokens) {
    if (t.kind == TokenKind::kOperator && t.text == "<") saw_lt = true;
    if (t.kind == TokenKind::kIriRef) saw_iri = true;
  }
  EXPECT_TRUE(saw_lt);
  EXPECT_TRUE(saw_iri);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("# comment line\nSELECT");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[0].line, 2);
}

TEST(LexerTest, TypedLiteralToken) {
  auto tokens = Tokenize("\"5\"^^xsd:int \"x\"@en");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "\"5\"^^xsd:int");
  EXPECT_EQ((*tokens)[1].text, "\"x\"@en");
}

TEST(ParserTest, SimpleSelect) {
  auto q = ParseQuery(
      "SELECT ?x ?y WHERE { ?x <http://ex/p> ?y . }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->projection, (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(q->where.triples.size(), 1u);
  EXPECT_EQ(q->where.triples[0].predicate.value, "<http://ex/p>");
}

TEST(ParserTest, PrefixExpansion) {
  auto q = ParseQuery(
      "PREFIX ex: <http://ex/>\n"
      "SELECT * WHERE { ?x ex:p ex:A . }");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->select_all);
  EXPECT_EQ(q->where.triples[0].predicate.value, "<http://ex/p>");
  EXPECT_EQ(q->where.triples[0].object.value, "<http://ex/A>");
}

TEST(ParserTest, UndeclaredPrefixFails) {
  EXPECT_FALSE(ParseQuery("SELECT * WHERE { ?x ex:p ?y . }").ok());
}

TEST(ParserTest, RdfTypeKeywordA) {
  auto q = ParseQuery("SELECT * WHERE { ?x a <http://ex/C> . }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.triples[0].predicate.value,
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>");
}

TEST(ParserTest, PredicateObjectLists) {
  auto q = ParseQuery(
      "PREFIX e: <http://e/>\n"
      "SELECT * WHERE { ?x e:p ?y ; e:q ?z , ?w . }");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->where.triples.size(), 3u);
  EXPECT_EQ(q->where.triples[1].predicate.value, "<http://e/q>");
  EXPECT_EQ(q->where.triples[2].object.value, "w");
  EXPECT_TRUE(q->where.triples[2].object.is_variable());
  // Shared subject across the ';' list.
  EXPECT_EQ(q->where.triples[2].subject.value, "x");
}

TEST(ParserTest, NumericLiteralsCanonicalized) {
  auto q = ParseQuery("SELECT * WHERE { ?x <http://e/p> 42 . }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.triples[0].object.value,
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  auto q2 = ParseQuery("SELECT * WHERE { ?x <http://e/p> 4.5 . }");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->where.triples[0].object.value,
            "\"4.5\"^^<http://www.w3.org/2001/XMLSchema#double>");
}

TEST(ParserTest, FilterComparison) {
  auto q = ParseQuery(
      "SELECT * WHERE { ?x <http://e/p> ?y . FILTER (?y >= 10 && ?y < 20) }");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->where.filters.size(), 1u);
  EXPECT_EQ(q->where.filters[0]->kind(), sparql::Expr::Kind::kAnd);
}

TEST(ParserTest, FilterRegexAndBound) {
  auto q = ParseQuery(
      "SELECT * WHERE { ?x <http://e/p> ?y . "
      "FILTER regex(?y, \"abc\", \"i\") FILTER bound(?x) }");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->where.filters.size(), 2u);
  EXPECT_EQ(q->where.filters[0]->kind(), sparql::Expr::Kind::kRegex);
  EXPECT_EQ(q->where.filters[1]->kind(), sparql::Expr::Kind::kBound);
}

TEST(ParserTest, RegexFlagSetsCaseInsensitive) {
  auto q = ParseQuery(
      "SELECT * WHERE { ?x <http://e/p> ?y . "
      "FILTER regex(?y, \"^ab\", \"i\") FILTER regex(?x, \"cd\") }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where.filters.size(), 2u);
  const Expr& icase = *q->where.filters[0];
  EXPECT_TRUE(icase.case_insensitive());
  EXPECT_EQ(icase.ReferencedVariables(), std::vector<std::string>{"y"});
  ASSERT_NE(icase.left(), nullptr);
  EXPECT_EQ(icase.left()->name(), "^ab");
  EXPECT_FALSE(q->where.filters[1]->case_insensitive());
  EXPECT_EQ(q->where.filters[1]->ToString(), "REGEX(?x, \"cd\")");
}

TEST(ParserTest, OptionalAndUnion) {
  auto q = ParseQuery(
      "PREFIX e: <http://e/>\n"
      "SELECT * WHERE {\n"
      "  ?x e:p ?y .\n"
      "  OPTIONAL { ?x e:q ?z . }\n"
      "  { ?x e:r ?w . } UNION { ?x e:s ?w . }\n"
      "}");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.triples.size(), 1u);
  ASSERT_EQ(q->where.optionals.size(), 1u);
  EXPECT_EQ(q->where.optionals[0].triples.size(), 1u);
  ASSERT_EQ(q->where.unions.size(), 1u);
  EXPECT_EQ(q->where.unions[0].size(), 2u);
}

TEST(ParserTest, LoneNestedGroupMerges) {
  auto q = ParseQuery(
      "PREFIX e: <http://e/>\n"
      "SELECT * WHERE { { ?x e:p ?y . } ?y e:q ?z . }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.triples.size(), 2u);
  EXPECT_TRUE(q->where.unions.empty());
}

TEST(ParserTest, SolutionModifiers) {
  auto q = ParseQuery(
      "SELECT DISTINCT ?x WHERE { ?x <http://e/p> ?y . } "
      "ORDER BY DESC(?y) ?x LIMIT 10 OFFSET 5");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->distinct);
  ASSERT_EQ(q->order_by.size(), 2u);
  EXPECT_FALSE(q->order_by[0].ascending);
  EXPECT_EQ(q->order_by[0].column, "y");
  EXPECT_TRUE(q->order_by[1].ascending);
  EXPECT_EQ(q->limit, 10u);
  EXPECT_EQ(q->offset, 5u);
}

TEST(ParserTest, MalformedQueriesRejected) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("SELECT WHERE { }").ok());
  EXPECT_FALSE(ParseQuery("SELECT * WHERE { ?x }").ok());
  EXPECT_FALSE(ParseQuery("SELECT * WHERE { ?x <p> ?y . ").ok());
  EXPECT_FALSE(ParseQuery("SELECT * WHERE { ?x <p> ?y . } garbage").ok());
}

TEST(ParserTest, AskQuery) {
  auto q = ParseQuery("ASK { ?x <http://e/p> ?y . }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->form, QueryForm::kAsk);
  EXPECT_EQ(q->where.triples.size(), 1u);
  auto q2 = ParseQuery("ASK WHERE { ?x <http://e/p> ?y . FILTER (?y > 3) }");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->form, QueryForm::kAsk);
  EXPECT_EQ(q2->where.filters.size(), 1u);
}

TEST(ParserTest, ValuesBlocks) {
  auto q = ParseQuery(
      "PREFIX e: <http://e/>\n"
      "SELECT * WHERE { ?x e:p ?y . VALUES ?x { e:A e:B } }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where.values.size(), 1u);
  EXPECT_EQ(q->where.values[0].variables,
            (std::vector<std::string>{"x"}));
  ASSERT_EQ(q->where.values[0].rows.size(), 2u);
  EXPECT_EQ(q->where.values[0].rows[0][0], "<http://e/A>");

  auto multi = ParseQuery(
      "SELECT * WHERE { VALUES (?a ?b) { (<x> 1) (<y> 2) } }");
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  ASSERT_EQ(multi->where.values[0].rows.size(), 2u);
  EXPECT_EQ(multi->where.values[0].rows[1][1],
            "\"2\"^^<http://www.w3.org/2001/XMLSchema#integer>");

  EXPECT_FALSE(ParseQuery("SELECT * WHERE { VALUES ?x { UNDEF } }").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT * WHERE { VALUES (?a ?b) { (<x>) } }").ok());
}

TEST(ParserTest, ConstructQuery) {
  auto q = ParseQuery(
      "PREFIX e: <http://e/>\n"
      "CONSTRUCT { ?y e:rev ?x . ?x a e:Node . } WHERE { ?x e:p ?y . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->form, QueryForm::kConstruct);
  ASSERT_EQ(q->construct_template.size(), 2u);
  EXPECT_EQ(q->construct_template[0].predicate.value, "<http://e/rev>");
  EXPECT_EQ(q->where.triples.size(), 1u);
  EXPECT_FALSE(ParseQuery("CONSTRUCT { } WHERE { ?x <p> ?y . }").ok());
}

TEST(ParserTest, DescribeQuery) {
  auto q = ParseQuery(
      "PREFIX e: <http://e/>\nDESCRIBE e:A ?x WHERE { ?x e:p e:A . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->form, QueryForm::kDescribe);
  ASSERT_EQ(q->describe_targets.size(), 2u);
  EXPECT_EQ(q->describe_targets[0].value, "<http://e/A>");
  EXPECT_TRUE(q->describe_targets[1].is_variable());

  auto bare = ParseQuery("DESCRIBE <http://e/B>");
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->where.triples.empty());
  EXPECT_FALSE(ParseQuery("DESCRIBE WHERE { ?x <p> ?y . }").ok());
}

TEST(ParserTest, WatDivStyleQueryParses) {
  // Template-instantiated WatDiv L2 query shape.
  auto q = ParseQuery(
      "PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>\n"
      "PREFIX sorg: <http://schema.org/>\n"
      "PREFIX gn: <http://www.geonames.org/ontology#>\n"
      "SELECT ?v1 ?v2 WHERE {\n"
      "  wsdbm:City102 gn:parentCountry ?v1 .\n"
      "  ?v2 wsdbm:likes wsdbm:Product0 .\n"
      "  ?v2 sorg:nationality ?v1 .\n"
      "}");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.triples.size(), 3u);
  EXPECT_EQ(q->where.triples[0].subject.value,
            "<http://db.uwaterloo.ca/~galuc/wsdbm/City102>");
}

TEST(ExprTest, CloneIsDeepAndKeepsEveryField) {
  ExprPtr original = Expr::Or(
      Expr::And(Expr::Compare(CompareOp::kGe, Expr::Var("a"),
                              Expr::Const("\"5\"^^<http://www.w3.org/2001/"
                                          "XMLSchema#integer>")),
                Expr::Not(Expr::Bound("b"))),
      Expr::Regex("c", "x.*y", true));
  const std::string rendered = original->ToString();
  EXPECT_EQ(rendered,
            "(((?a >= \"5\"^^<http://www.w3.org/2001/XMLSchema#integer>) && "
            "!BOUND(?b)) || REGEX(?c, \"x.*y\"))");
  EXPECT_EQ(original->ReferencedVariables(),
            (std::vector<std::string>{"a", "b", "c"}));

  ExprPtr copy = original->Clone();
  original.reset();  // The copy shares no node with the original.
  EXPECT_EQ(copy->ToString(), rendered);
  EXPECT_EQ(copy->ReferencedVariables(),
            (std::vector<std::string>{"a", "b", "c"}));
  const Expr* compare = copy->left()->left();
  EXPECT_EQ(compare->kind(), Expr::Kind::kCompare);
  EXPECT_EQ(compare->compare_op(), CompareOp::kGe);
  const Expr* regex = copy->right();
  EXPECT_EQ(regex->kind(), Expr::Kind::kRegex);
  EXPECT_TRUE(regex->case_insensitive());
  EXPECT_EQ(regex->left()->name(), "x.*y");
}

}  // namespace
}  // namespace s2rdf::sparql
