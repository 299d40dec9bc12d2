#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/aggregate.h"
#include "engine/expression.h"
#include "engine/operators.h"
#include "engine/plan.h"
#include "engine/value.h"
#include "rdf/dictionary.h"
#include "rdf/table.h"

namespace s2rdf::engine {
namespace {

// --- Table --------------------------------------------------------------

TEST(TableTest, AppendAndAccess) {
  Table t({"x", "y"});
  t.AppendRow({1, 2});
  t.AppendRow({3, 4});
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.NumColumns(), 2u);
  EXPECT_EQ(t.At(1, 0), 3u);
  EXPECT_EQ(t.ColumnIndex("y"), 1);
  EXPECT_EQ(t.ColumnIndex("z"), -1);
}

TEST(TableTest, SameBagIgnoresRowOrder) {
  Table a({"x"});
  a.AppendRow({1});
  a.AppendRow({2});
  Table b({"x"});
  b.AppendRow({2});
  b.AppendRow({1});
  EXPECT_TRUE(Table::SameBag(a, b));
  b.AppendRow({1});
  EXPECT_FALSE(Table::SameBag(a, b));
}

TEST(TableTest, SameBagRespectsDuplicates) {
  Table a({"x"});
  a.AppendRow({1});
  a.AppendRow({1});
  Table b({"x"});
  b.AppendRow({1});
  b.AppendRow({2});
  EXPECT_FALSE(Table::SameBag(a, b));
}

// The caller states the row count: a table without columns still holds
// rows, each one solution that binds no variable.
TEST(TableTest, AdoptColumnsTakesTheRowCount) {
  Table t({"x", "y"});
  t.AdoptColumns({{1, 2, 3}, {4, 5, 6}}, 3);
  ASSERT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.At(2, 0), 3u);
  EXPECT_EQ(t.At(0, 1), 4u);
  t.AppendRow({7, 8});
  EXPECT_EQ(t.NumRows(), 4u);

  Table empty_solutions(std::vector<std::string>{});
  empty_solutions.AdoptColumns({}, 2);
  EXPECT_EQ(empty_solutions.NumColumns(), 0u);
  EXPECT_EQ(empty_solutions.NumRows(), 2u);
  empty_solutions.AppendRow({});
  EXPECT_EQ(empty_solutions.NumRows(), 3u);
  Table two(std::vector<std::string>{});
  two.AdoptColumns({}, 2);
  EXPECT_FALSE(Table::SameBag(empty_solutions, two));
  two.AppendRow({});
  EXPECT_TRUE(Table::SameBag(empty_solutions, two));
}

// --- Values --------------------------------------------------------------

TEST(ValueTest, ParsesTypedNumerics) {
  Value v = ValueFromCanonicalTerm(
      "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(v.kind, ValueKind::kInt);
  EXPECT_EQ(v.int_value, 42);
  Value d = ValueFromCanonicalTerm(
      "\"2.5\"^^<http://www.w3.org/2001/XMLSchema#double>");
  EXPECT_EQ(d.kind, ValueKind::kDouble);
}

TEST(ValueTest, NumericComparisonCrossesTypes) {
  Value i = ValueFromCanonicalTerm(
      "\"3\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  Value d = ValueFromCanonicalTerm(
      "\"3.5\"^^<http://www.w3.org/2001/XMLSchema#double>");
  bool comparable = false;
  EXPECT_LT(CompareValues(i, d, &comparable), 0);
  EXPECT_TRUE(comparable);
}

TEST(ValueTest, StringVsNumberIsTypeError) {
  Value s = ValueFromCanonicalTerm("\"abc\"");
  Value i = ValueFromCanonicalTerm(
      "\"3\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  bool comparable = true;
  CompareValues(s, i, &comparable);
  EXPECT_FALSE(comparable);
}

TEST(ValueTest, PlainLiteralIsString) {
  Value v = ValueFromCanonicalTerm("\"42\"");
  EXPECT_EQ(v.kind, ValueKind::kString);
}

// --- Operators ------------------------------------------------------------

class OperatorsTest : public ::testing::Test {
 protected:
  // Tiny two-table setup: follows(s,o) and likes(s,o) over ids.
  OperatorsTest() : follows_({"x", "y"}), likes_({"x", "w"}) {
    // Ids: A=0 B=1 C=2 D=3 I1=4 I2=5.
    follows_.AppendRow({0, 1});
    follows_.AppendRow({1, 2});
    follows_.AppendRow({1, 3});
    follows_.AppendRow({2, 3});
    likes_.AppendRow({0, 4});
    likes_.AppendRow({0, 5});
    likes_.AppendRow({2, 5});
  }

  Table follows_;
  Table likes_;
  ExecContext ctx_;
};

TEST_F(OperatorsTest, ScanSelectProject) {
  ScanSpec spec;
  spec.conditions.emplace_back(0, 0);  // x == A
  spec.projections.emplace_back(1, "y");
  Table out = ScanSelectProject(follows_, spec, &ctx_);
  ASSERT_EQ(out.NumRows(), 1u);
  EXPECT_EQ(out.At(0, 0), 1u);
  EXPECT_EQ(ctx_.metrics.input_tuples, follows_.NumRows());
}

TEST_F(OperatorsTest, ScanEqualColumns) {
  Table t({"a", "b"});
  t.AppendRow({1, 1});
  t.AppendRow({1, 2});
  ScanSpec spec;
  spec.equal_columns.emplace_back(0, 1);
  spec.projections.emplace_back(0, "a");
  Table out = ScanSelectProject(t, spec, &ctx_);
  EXPECT_EQ(out.NumRows(), 1u);
}

TEST_F(OperatorsTest, HashJoinOnSharedColumn) {
  // follows(x,y) join likes(x,w): subject-subject join.
  Table out = HashJoin(follows_, likes_, &ctx_);
  // A follows B and A likes I1/I2 -> 2 rows; C follows D and C likes I2.
  EXPECT_EQ(out.NumRows(), 3u);
  EXPECT_EQ(out.NumColumns(), 3u);
  EXPECT_EQ(ctx_.metrics.join_comparisons,
            follows_.NumRows() * likes_.NumRows());
}

TEST_F(OperatorsTest, HashJoinNoSharedColumnsIsCross) {
  Table a({"p"});
  a.AppendRow({1});
  a.AppendRow({2});
  Table b({"q"});
  b.AppendRow({7});
  Table out = HashJoin(a, b, &ctx_);
  EXPECT_EQ(out.NumRows(), 2u);
  EXPECT_EQ(out.NumColumns(), 2u);
}

// Tables without columns join as bags of empty solutions: each pairing
// of rows is one solution, and an empty side leaves none.
TEST_F(OperatorsTest, HashJoinOfNoColumnTablesPairsEveryRow) {
  Table two(std::vector<std::string>{});
  two.AdoptColumns({}, 2);
  Table three(std::vector<std::string>{});
  three.AdoptColumns({}, 3);
  Table out = HashJoin(two, three, &ctx_);
  EXPECT_EQ(out.NumColumns(), 0u);
  EXPECT_EQ(out.NumRows(), 6u);
  EXPECT_EQ(HashJoin(two, Table(std::vector<std::string>{}), &ctx_).NumRows(),
            0u);
  // Against a table with columns, each of its rows comes out once per
  // empty solution.
  Table with_likes = HashJoin(two, likes_, &ctx_);
  EXPECT_EQ(with_likes.column_names(), likes_.column_names());
  EXPECT_EQ(with_likes.NumRows(), 2 * likes_.NumRows());
}

TEST_F(OperatorsTest, HashJoinNullKeysNeverMatch) {
  Table a({"x"});
  a.AppendRow({kNullTermId});
  Table out = HashJoin(a, likes_, &ctx_);
  EXPECT_EQ(out.NumRows(), 0u);
}

TEST_F(OperatorsTest, SemiJoinReducesLeft) {
  // follows semi-join likes on o = s: keep follows rows whose object is
  // a likes subject ({0, 2}) -> (1,2) and (2, ... no: objects are 1,2,3.
  Table out = SemiJoin(follows_, 1, likes_, 0, &ctx_);
  ASSERT_EQ(out.NumRows(), 1u);  // Only (1, 2): object 2 = C likes.
  EXPECT_EQ(out.At(0, 0), 1u);
  EXPECT_EQ(out.At(0, 1), 2u);
}

TEST_F(OperatorsTest, SemiJoinChargesCrossComparisons) {
  // Semi joins follow the |L|x|R| accounting of every other join
  // (Fig. 8 / Fig. 12), not |L|.
  SemiJoin(follows_, 1, likes_, 0, &ctx_);
  EXPECT_EQ(ctx_.metrics.join_comparisons,
            follows_.NumRows() * likes_.NumRows());
}

TEST_F(OperatorsTest, LeftOuterJoinPadsWithNulls) {
  rdf::Dictionary dict;
  Table out = LeftOuterJoin(follows_, likes_, nullptr, dict, &ctx_);
  // Every follows row survives; B rows (x=1) have no likes match.
  EXPECT_EQ(out.NumRows(), 5u);
  int nulls = 0;
  int w_col = out.ColumnIndex("w");
  ASSERT_GE(w_col, 0);
  for (size_t r = 0; r < out.NumRows(); ++r) {
    if (out.At(r, static_cast<size_t>(w_col)) == kNullTermId) ++nulls;
  }
  EXPECT_EQ(nulls, 2);
}

TEST_F(OperatorsTest, UnionAllAlignsSchemas) {
  Table a({"x", "y"});
  a.AppendRow({1, 2});
  Table b({"y", "z"});
  b.AppendRow({8, 9});
  Table out = UnionAll(a, b, &ctx_);
  EXPECT_EQ(out.NumRows(), 2u);
  EXPECT_EQ(out.NumColumns(), 3u);
  EXPECT_EQ(out.At(1, 0), kNullTermId);  // x unbound in b.
  EXPECT_EQ(out.At(1, 1), 8u);
}

TEST_F(OperatorsTest, DistinctRemovesDuplicates) {
  Table t({"x"});
  t.AppendRow({1});
  t.AppendRow({1});
  t.AppendRow({2});
  Table out = Distinct(t, &ctx_);
  EXPECT_EQ(out.NumRows(), 2u);
}

TEST_F(OperatorsTest, SliceAndProject) {
  Table sliced = Slice(follows_, 1, 2);
  EXPECT_EQ(sliced.NumRows(), 2u);
  EXPECT_EQ(sliced.At(0, 0), 1u);
  Table empty = Slice(follows_, 10, kNoLimit);
  EXPECT_EQ(empty.NumRows(), 0u);
  Table projected = Project(follows_, {"y"});
  EXPECT_EQ(projected.NumColumns(), 1u);
  EXPECT_EQ(projected.At(0, 0), 1u);
}

// Projecting onto no columns keeps one (empty) row per input row: each
// is still a solution, it just binds nothing.
TEST_F(OperatorsTest, ProjectOntoNoColumnsKeepsRows) {
  Table projected = Project(follows_, {});
  EXPECT_EQ(projected.NumColumns(), 0u);
  EXPECT_EQ(projected.NumRows(), follows_.NumRows());
  Table none = Project(Table(std::vector<std::string>{}), {});
  EXPECT_EQ(none.NumRows(), 0u);
}

TEST_F(OperatorsTest, OrderByNumericValues) {
  rdf::Dictionary dict;
  rdf::TermId ten = dict.Encode(
      "\"10\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  rdf::TermId two = dict.Encode(
      "\"2\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  Table t({"n"});
  t.AppendRow({ten});
  t.AppendRow({two});
  Table asc = OrderBy(t, {{"n", true}}, dict);
  EXPECT_EQ(asc.At(0, 0), two);  // Numeric: 2 < 10 despite "10" < "2".
  Table desc = OrderBy(t, {{"n", false}}, dict);
  EXPECT_EQ(desc.At(0, 0), ten);
}

TEST_F(OperatorsTest, FilterWithExpression) {
  rdf::Dictionary dict;
  rdf::TermId a = dict.Encode("<A>");
  rdf::TermId b = dict.Encode("<B>");
  Table t({"x"});
  t.AppendRow({a});
  t.AppendRow({b});
  ExprPtr e = Expr::Compare(CompareOp::kEq, Expr::Var("x"),
                            Expr::Const("<A>"));
  Table out = Filter(t, *e, dict, &ctx_);
  ASSERT_EQ(out.NumRows(), 1u);
  EXPECT_EQ(out.At(0, 0), a);
}

TEST_F(OperatorsTest, ShuffleAccountingUsesPartitions) {
  ExecContext ctx;
  ctx.num_partitions = 4;
  ctx.AccountShuffle(100);
  EXPECT_EQ(ctx.metrics.shuffled_tuples, 75u);
  ExecContext single;
  single.num_partitions = 1;
  single.AccountShuffle(100);
  EXPECT_EQ(single.metrics.shuffled_tuples, 0u);
}

// --- Sort-merge join ---------------------------------------------------------

class SortMergeJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(SortMergeJoinTest, MatchesHashJoin) {
  s2rdf::SplitMix64 rng(static_cast<uint64_t>(GetParam()) * 17 + 3);
  Table left({"x", "y"});
  Table right({"y", "z"});
  size_t rows = 50 + rng.Uniform(500);
  for (size_t i = 0; i < rows; ++i) {
    left.AppendRow({static_cast<TermId>(rng.Uniform(40)),
                    static_cast<TermId>(rng.Uniform(25))});
    right.AppendRow({static_cast<TermId>(rng.Uniform(25)),
                     static_cast<TermId>(rng.Uniform(40))});
  }
  left.AppendRow({kNullTermId, 1});
  right.AppendRow({1, kNullTermId});

  Table hash = HashJoin(left, right, nullptr);
  Table merge = SortMergeJoin(left, right, nullptr);
  EXPECT_TRUE(Table::SameBag(hash, merge));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortMergeJoinTest, ::testing::Range(0, 6));

TEST(SortMergeJoinTest, DuplicateKeysCrossWithinRuns) {
  Table left({"k", "a"});
  left.AppendRow({1, 10});
  left.AppendRow({1, 11});
  left.AppendRow({2, 12});
  Table right({"k", "b"});
  right.AppendRow({1, 20});
  right.AppendRow({1, 21});
  Table out = SortMergeJoin(left, right, nullptr);
  EXPECT_EQ(out.NumRows(), 4u);  // 2x2 for k=1, nothing for k=2.
}

// --- Expressions -----------------------------------------------------------

TEST(ExpressionTest, ThreeValuedLogic) {
  rdf::Dictionary dict;
  rdf::TermId n5 =
      dict.Encode("\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  Table t({"x", "y"});
  t.AppendRow({n5, kNullTermId});

  // (?y > 3) is an error (unbound) -> error || true = true.
  ExprPtr err_or_true = Expr::Or(
      Expr::Compare(CompareOp::kGt, Expr::Var("y"),
                    Expr::Const(
                        "\"3\"^^<http://www.w3.org/2001/XMLSchema#integer>")),
      Expr::Compare(CompareOp::kGt, Expr::Var("x"),
                    Expr::Const(
                        "\"3\"^^<http://www.w3.org/2001/XMLSchema#integer>")));
  ExprEvaluator eval1(*err_or_true, t, dict);
  EXPECT_EQ(eval1.Eval(0), Truth::kTrue);

  // error && true = error -> filtered out.
  ExprPtr err_and_true = Expr::And(
      Expr::Compare(CompareOp::kGt, Expr::Var("y"),
                    Expr::Const(
                        "\"3\"^^<http://www.w3.org/2001/XMLSchema#integer>")),
      Expr::Compare(CompareOp::kGt, Expr::Var("x"),
                    Expr::Const(
                        "\"3\"^^<http://www.w3.org/2001/XMLSchema#integer>")));
  ExprEvaluator eval2(*err_and_true, t, dict);
  EXPECT_EQ(eval2.Eval(0), Truth::kError);
  EXPECT_FALSE(eval2.Keep(0));
}

TEST(ExpressionTest, BoundAndRegex) {
  rdf::Dictionary dict;
  rdf::TermId hello = dict.Encode("\"Hello World\"");
  Table t({"x", "y"});
  t.AppendRow({hello, kNullTermId});

  ExprPtr bound_x = Expr::Bound("x");
  EXPECT_EQ(ExprEvaluator(*bound_x, t, dict).Eval(0), Truth::kTrue);
  ExprPtr bound_y = Expr::Bound("y");
  EXPECT_EQ(ExprEvaluator(*bound_y, t, dict).Eval(0), Truth::kFalse);

  ExprPtr re = Expr::Regex("x", "world", true);
  EXPECT_EQ(ExprEvaluator(*re, t, dict).Eval(0), Truth::kTrue);
  ExprPtr re_cs = Expr::Regex("x", "world", false);
  EXPECT_EQ(ExprEvaluator(*re_cs, t, dict).Eval(0), Truth::kFalse);
}

// --- Plan execution ---------------------------------------------------------

TEST(PlanTest, ScanJoinProjectExecution) {
  rdf::Dictionary dict;
  rdf::TermId a = dict.Encode("<A>");
  rdf::TermId b = dict.Encode("<B>");
  rdf::TermId c = dict.Encode("<C>");
  Table follows({"s", "o"});
  follows.AppendRow({a, b});
  follows.AppendRow({b, c});
  Table likes({"s", "o"});
  likes.AppendRow({b, a});

  auto provider = [&](const std::string& name,
                      const std::string&) -> const Table* {
    if (name == "follows") return &follows;
    if (name == "likes") return &likes;
    return nullptr;
  };

  // ?x follows ?y . ?y likes ?z
  engine::PlanPtr plan = PlanNode::Join(
      PlanNode::Scan("follows", {}, {{"s", "x"}, {"o", "y"}}),
      PlanNode::Scan("likes", {}, {{"s", "y"}, {"o", "z"}}));
  plan = PlanNode::ProjectNode(std::move(plan), {"x", "y", "z"});

  ExecContext ctx;
  auto result = ExecutePlan(*plan, provider, &dict, &ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->NumRows(), 1u);
  EXPECT_EQ(result->At(0, 0), a);
  EXPECT_EQ(result->At(0, 1), b);
  EXPECT_EQ(result->At(0, 2), a);
  EXPECT_GT(ctx.metrics.input_tuples, 0u);
}

TEST(PlanTest, UnknownTableIsNotFound) {
  rdf::Dictionary dict;
  auto provider = [](const std::string&, const std::string&) -> const Table* {
    return nullptr;
  };
  engine::PlanPtr plan = PlanNode::Scan("nope", {}, {{"s", "x"}});
  ExecContext ctx;
  auto result = ExecutePlan(*plan, provider, &dict, &ctx);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(PlanTest, EmptyNodeYieldsEmptySchema) {
  rdf::Dictionary dict;
  auto provider = [](const std::string&, const std::string&) -> const Table* {
    return nullptr;
  };
  engine::PlanPtr plan = PlanNode::Empty({"x", "y"});
  ExecContext ctx;
  auto result = ExecutePlan(*plan, provider, &dict, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRows(), 0u);
  EXPECT_EQ(result->NumColumns(), 2u);
}

TEST(PlanTest, ToSqlRendersScan) {
  engine::PlanPtr plan =
      PlanNode::Scan("vp_likes_3", {{"s", "<A>"}}, {{"o", "w"}});
  std::string sql = plan->ToSql();
  EXPECT_NE(sql.find("SELECT o AS w"), std::string::npos);
  EXPECT_NE(sql.find("FROM vp_likes_3"), std::string::npos);
  EXPECT_NE(sql.find("WHERE s = '<A>'"), std::string::npos);
}

TEST(PlanTest, ScanConstantMissingFromDictionaryMatchesNothing) {
  rdf::Dictionary dict;
  rdf::TermId a = dict.Encode("<A>");
  Table base({"s", "o"});
  base.AppendRow({a, a});
  auto provider = [&](const std::string&, const std::string&) -> const Table* {
    return &base;
  };
  engine::PlanPtr plan =
      PlanNode::Scan("t", {{"s", "<NotInData>"}}, {{"o", "x"}});
  ExecContext ctx;
  auto result = ExecutePlan(*plan, provider, &dict, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRows(), 0u);
}

}  // namespace
}  // namespace s2rdf::engine
