#include <gtest/gtest.h>

#include "core/s2rdf.h"
#include "engine/aggregate.h"
#include "rdf/graph.h"
#include "sparql/parser.h"

// SPARQL 1.1 aggregation and subqueries — the second half of the paper's
// stated future work ("subqueries and aggregations", Sec. 6.1).

namespace s2rdf {
namespace {

using sparql::AggregateSpec;

std::string IntLit(long long v) {
  return "\"" + std::to_string(v) +
         "\"^^<http://www.w3.org/2001/XMLSchema#integer>";
}

// --- Engine operator --------------------------------------------------------

class GroupByOperatorTest : public ::testing::Test {
 protected:
  GroupByOperatorTest() : table_({"g", "v"}) {
    // Groups: g=A -> {1, 2, 2}, g=B -> {5}.
    a_ = dict_.Encode("<A>");
    b_ = dict_.Encode("<B>");
    one_ = dict_.Encode(IntLit(1));
    two_ = dict_.Encode(IntLit(2));
    five_ = dict_.Encode(IntLit(5));
    table_.AppendRow({a_, one_});
    table_.AppendRow({a_, two_});
    table_.AppendRow({a_, two_});
    table_.AppendRow({b_, five_});
  }

  rdf::TermId Find(const std::string& s) { return *dict_.Find(s); }

  rdf::Dictionary dict_;
  rdf::Table table_;
  rdf::TermId a_, b_, one_, two_, five_;
};

TEST_F(GroupByOperatorTest, CountSumMinMaxAvgPerGroup) {
  std::vector<AggregateSpec> specs = {
      {AggregateSpec::Fn::kCountStar, "", "n", false},
      {AggregateSpec::Fn::kSum, "v", "total", false},
      {AggregateSpec::Fn::kMin, "v", "lo", false},
      {AggregateSpec::Fn::kMax, "v", "hi", false},
      {AggregateSpec::Fn::kAvg, "v", "mean", false},
  };
  auto out = engine::GroupByAggregate(table_, {"g"}, specs, &dict_, nullptr);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 2u);
  // Row order is deterministic (key id order: A first).
  EXPECT_EQ(out->At(0, 0), a_);
  EXPECT_EQ(out->At(0, 1), Find(IntLit(3)));          // COUNT(*).
  EXPECT_EQ(out->At(0, 2), Find(IntLit(5)));          // SUM.
  EXPECT_EQ(out->At(0, 3), one_);                     // MIN.
  EXPECT_EQ(out->At(0, 4), two_);                     // MAX.
  EXPECT_EQ(dict_.Decode(out->At(0, 5)),
            "\"1.66666666667\"^^<http://www.w3.org/2001/XMLSchema#double>");
  EXPECT_EQ(out->At(1, 0), b_);
  EXPECT_EQ(out->At(1, 1), Find(IntLit(1)));
  EXPECT_EQ(out->At(1, 2), five_);  // SUM of {5} reuses the int literal.
}

TEST_F(GroupByOperatorTest, CountDistinct) {
  std::vector<AggregateSpec> specs = {
      {AggregateSpec::Fn::kCount, "v", "n", true},
  };
  auto out = engine::GroupByAggregate(table_, {"g"}, specs, &dict_, nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->At(0, 1), Find(IntLit(2)));  // {1, 2}.
  EXPECT_EQ(out->At(1, 1), Find(IntLit(1)));
}

TEST_F(GroupByOperatorTest, ImplicitGroupOverEmptyInput) {
  rdf::Table empty({"v"});
  std::vector<AggregateSpec> specs = {
      {AggregateSpec::Fn::kCountStar, "", "n", false},
      {AggregateSpec::Fn::kSum, "v", "total", false},
      {AggregateSpec::Fn::kMin, "v", "lo", false},
  };
  auto out = engine::GroupByAggregate(empty, {}, specs, &dict_, nullptr);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->At(0, 0), Find(IntLit(0)));  // COUNT = 0.
  EXPECT_EQ(out->At(0, 1), Find(IntLit(0)));  // SUM of empty = 0.
  EXPECT_EQ(out->At(0, 2), rdf::kNullTermId);  // MIN unbound.
}

TEST_F(GroupByOperatorTest, UnboundBindingsAreSkipped) {
  rdf::Table t({"v"});
  t.AppendRow({one_});
  t.AppendRow({rdf::kNullTermId});
  std::vector<AggregateSpec> specs = {
      {AggregateSpec::Fn::kCount, "v", "n", false},
      {AggregateSpec::Fn::kCountStar, "", "all", false},
  };
  auto out = engine::GroupByAggregate(t, {}, specs, &dict_, nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->At(0, 0), Find(IntLit(1)));  // COUNT(?v) skips unbound.
  EXPECT_EQ(out->At(0, 1), Find(IntLit(2)));  // COUNT(*) counts rows.
}

TEST_F(GroupByOperatorTest, SumOverNonNumericIsUnbound) {
  rdf::Table t({"v"});
  t.AppendRow({dict_.Encode("\"abc\"")});
  std::vector<AggregateSpec> specs = {
      {AggregateSpec::Fn::kSum, "v", "total", false},
  };
  auto out = engine::GroupByAggregate(t, {}, specs, &dict_, nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->At(0, 0), rdf::kNullTermId);
}

TEST_F(GroupByOperatorTest, ErrorsOnUnknownVariables) {
  std::vector<AggregateSpec> specs = {
      {AggregateSpec::Fn::kSum, "nope", "total", false},
  };
  EXPECT_FALSE(
      engine::GroupByAggregate(table_, {"g"}, specs, &dict_, nullptr).ok());
  std::vector<AggregateSpec> ok_specs = {
      {AggregateSpec::Fn::kCountStar, "", "n", false},
  };
  EXPECT_FALSE(
      engine::GroupByAggregate(table_, {"nope"}, ok_specs, &dict_, nullptr)
          .ok());
}

// --- Parser ------------------------------------------------------------------

TEST(AggregateParserTest, CountStarAndGroupBy) {
  auto q = sparql::ParseQuery(
      "SELECT ?g (COUNT(*) AS ?n) WHERE { ?g <http://e/p> ?v . } "
      "GROUP BY ?g ORDER BY DESC(?n) LIMIT 5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->aggregates.size(), 1u);
  EXPECT_EQ(q->aggregates[0].fn, AggregateSpec::Fn::kCountStar);
  EXPECT_EQ(q->aggregates[0].output_name, "n");
  EXPECT_EQ(q->group_by, (std::vector<std::string>{"g"}));
  EXPECT_EQ(q->projection, (std::vector<std::string>{"g", "n"}));
  EXPECT_EQ(q->limit, 5u);
}

TEST(AggregateParserTest, AllFunctions) {
  auto q = sparql::ParseQuery(
      "SELECT (COUNT(DISTINCT ?v) AS ?a) (SUM(?v) AS ?b) (AVG(?v) AS ?c) "
      "(MIN(?v) AS ?d) (MAX(?v) AS ?e) (SAMPLE(?v) AS ?f) "
      "WHERE { ?s <http://e/p> ?v . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->aggregates.size(), 6u);
  EXPECT_TRUE(q->aggregates[0].distinct);
  EXPECT_EQ(q->aggregates[1].fn, AggregateSpec::Fn::kSum);
  EXPECT_EQ(q->aggregates[5].fn, AggregateSpec::Fn::kSample);
}

TEST(AggregateParserTest, Rejections) {
  EXPECT_FALSE(sparql::ParseQuery(
                   "SELECT (SUM(*) AS ?x) WHERE { ?s <p> ?v . }")
                   .ok());
  EXPECT_FALSE(sparql::ParseQuery(
                   "SELECT (COUNT(?v)) WHERE { ?s <p> ?v . }")
                   .ok());  // Missing AS.
  EXPECT_FALSE(sparql::ParseQuery(
                   "SELECT ?s WHERE { ?s <p> ?v . } GROUP BY")
                   .ok());
  EXPECT_FALSE(sparql::ParseQuery(
                   "SELECT ?s WHERE { ?s <p> ?v . } HAVING (?v > 2)")
                   .ok());
}

TEST(AggregateParserTest, SubqueryParses) {
  auto q = sparql::ParseQuery(
      "SELECT ?s ?n WHERE { ?s <http://e/p> ?o . "
      "{ SELECT ?s (COUNT(*) AS ?n) WHERE { ?s <http://e/q> ?x . } "
      "GROUP BY ?s } }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where.subqueries.size(), 1u);
  EXPECT_EQ(q->where.subqueries[0]->aggregates.size(), 1u);
  // Subquery projection is visible to the outer query.
  auto vars = q->where.AllVariables();
  EXPECT_NE(std::find(vars.begin(), vars.end(), "n"), vars.end());
}

// --- End to end ----------------------------------------------------------------

class AggregateQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rdf::Graph g;
    g.AddIris("A", "follows", "B");
    g.AddIris("A", "follows", "C");
    g.AddIris("A", "follows", "D");
    g.AddIris("B", "follows", "C");
    g.AddCanonical("<B>", "<score>", IntLit(10));
    g.AddCanonical("<C>", "<score>", IntLit(30));
    g.AddCanonical("<D>", "<score>", IntLit(20));
    auto db = core::S2Rdf::Create(std::move(g), core::S2RdfOptions());
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
  }

  std::unique_ptr<core::S2Rdf> db_;
};

TEST_F(AggregateQueryTest, CountPerGroupWithOrdering) {
  auto result = db_->Execute(
      {.query = "SELECT ?x (COUNT(*) AS ?n) WHERE { ?x <follows> ?y . } "
                "GROUP BY ?x ORDER BY DESC(?n)"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rows = db_->DecodeRows(result->table);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "<A>");
  EXPECT_EQ(rows[0][1], IntLit(3));
  EXPECT_EQ(rows[1][0], "<B>");
  EXPECT_EQ(rows[1][1], IntLit(1));
}

TEST_F(AggregateQueryTest, GlobalAggregatesOverJoin) {
  auto result = db_->Execute(
      {.query = "SELECT (COUNT(*) AS ?n) (SUM(?s) AS ?total) "
                "(AVG(?s) AS ?mean) (MAX(?s) AS ?best) "
                "WHERE { <A> <follows> ?y . ?y <score> ?s . }"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rows = db_->DecodeRows(result->table);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], IntLit(3));
  EXPECT_EQ(rows[0][1], IntLit(60));
  EXPECT_EQ(rows[0][2],
            "\"20.0\"^^<http://www.w3.org/2001/XMLSchema#double>");
  EXPECT_EQ(rows[0][3], IntLit(30));
}

TEST_F(AggregateQueryTest, GroupByWithoutAggregatesYieldsDistinctKeys) {
  auto result = db_->Execute(
      {.query = "SELECT ?x WHERE { ?x <follows> ?y . } GROUP BY ?x"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 2u);
}

TEST_F(AggregateQueryTest, ProjectionMustBeGroupedOrAggregated) {
  auto result = db_->Execute(
      {.query = "SELECT ?y (COUNT(*) AS ?n) WHERE { ?x <follows> ?y . } "
                "GROUP BY ?x"});
  EXPECT_FALSE(result.ok());
}

TEST_F(AggregateQueryTest, SubqueryJoinsWithOuterPattern) {
  // Scores of users followed by A, where the inner query picks users
  // with at least one incoming follow.
  auto result = db_->Execute(
      {.query = "SELECT ?y ?n WHERE { <A> <follows> ?y . "
                "{ SELECT ?y (COUNT(?x) AS ?n) WHERE { ?x <follows> ?y . } "
                "GROUP BY ?y } }"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rows = db_->DecodeRows(result->table);
  ASSERT_EQ(rows.size(), 3u);  // B, C, D all followed by A.
  for (const auto& row : rows) {
    if (row[0] == "<C>") {
      EXPECT_EQ(row[1], IntLit(2));  // A and B follow C.
    }
    if (row[0] == "<B>") {
      EXPECT_EQ(row[1], IntLit(1));
    }
  }
}

TEST_F(AggregateQueryTest, SubqueryLimitsAreLocal) {
  auto result = db_->Execute(
      {.query = "SELECT ?y WHERE { { SELECT ?y WHERE { ?x <follows> ?y . } "
                "ORDER BY ?y LIMIT 2 } }"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(), 2u);
}

TEST_F(AggregateQueryTest, AggregatesAcrossLayoutsAgree) {
  const char* query =
      "SELECT ?x (COUNT(*) AS ?n) WHERE { ?x <follows> ?y . } GROUP BY ?x";
  auto extvp = db_->Execute(
      {.query = query, .options = {.layout = core::Layout::kExtVp}});
  auto vp = db_->Execute(
      {.query = query, .options = {.layout = core::Layout::kVp}});
  auto tt = db_->Execute(
      {.query = query, .options = {.layout = core::Layout::kTriplesTable}});
  ASSERT_TRUE(extvp.ok());
  ASSERT_TRUE(vp.ok());
  ASSERT_TRUE(tt.ok());
  EXPECT_TRUE(rdf::Table::SameBag(extvp->table, vp->table));
  EXPECT_TRUE(rdf::Table::SameBag(extvp->table, tt->table));
}

}  // namespace
}  // namespace s2rdf
