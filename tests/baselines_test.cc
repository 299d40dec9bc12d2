#include <gtest/gtest.h>

#include "baselines/centralized_engine.h"
#include "baselines/h2rdf_engine.h"
#include "baselines/mr_sparql_engine.h"
#include "baselines/permutation_index.h"
#include "baselines/sempala_engine.h"
#include "common/file_util.h"
#include "rdf/graph.h"

namespace s2rdf::baselines {
namespace {

rdf::Graph MakeG1() {
  rdf::Graph g;
  g.AddIris("A", "follows", "B");
  g.AddIris("B", "follows", "C");
  g.AddIris("B", "follows", "D");
  g.AddIris("C", "follows", "D");
  g.AddIris("A", "likes", "I1");
  g.AddIris("A", "likes", "I2");
  g.AddIris("C", "likes", "I2");
  return g;
}

constexpr char kQ1[] =
    "SELECT ?x ?y ?z ?w WHERE { ?x <likes> ?w . ?x <follows> ?y . "
    "?y <follows> ?z . ?z <likes> ?w }";

void ExpectQ1Result(const rdf::Table& table, const rdf::Graph& g) {
  ASSERT_EQ(table.NumRows(), 1u);
  const rdf::Dictionary& dict = g.dictionary();
  auto col = [&](const char* name) {
    int c = table.ColumnIndex(name);
    EXPECT_GE(c, 0) << name;
    return dict.Decode(table.At(0, static_cast<size_t>(c)));
  };
  EXPECT_EQ(col("x"), "<A>");
  EXPECT_EQ(col("y"), "<B>");
  EXPECT_EQ(col("z"), "<C>");
  EXPECT_EQ(col("w"), "<I2>");
}

// --- Permutation indexes -------------------------------------------------

TEST(PermutationIndexTest, ScanByBoundPositions) {
  rdf::Graph g = MakeG1();
  PermutationIndexStore store(g);
  EXPECT_EQ(store.num_triples(), 7u);
  EXPECT_EQ(store.TotalIndexTuples(), 42u);

  const rdf::Dictionary& dict = g.dictionary();
  rdf::TermId follows = *dict.Find("<follows>");
  rdf::TermId b = *dict.Find("<B>");

  IndexPattern by_pred;
  by_pred.predicate = follows;
  EXPECT_EQ(store.Scan(by_pred).size(), 4u);

  IndexPattern by_subj_pred;
  by_subj_pred.subject = b;
  by_subj_pred.predicate = follows;
  EXPECT_EQ(store.Scan(by_subj_pred).size(), 2u);

  IndexPattern by_obj;
  by_obj.object = b;
  EXPECT_EQ(store.Scan(by_obj).size(), 1u);

  IndexPattern all;
  EXPECT_EQ(store.Scan(all).size(), 7u);

  IndexPattern fully_bound;
  fully_bound.subject = *dict.Find("<A>");
  fully_bound.predicate = follows;
  fully_bound.object = b;
  EXPECT_EQ(store.Scan(fully_bound).size(), 1u);
}

TEST(PermutationIndexTest, DeduplicatesInput) {
  rdf::Graph g;
  g.AddIris("A", "p", "B");
  g.AddIris("A", "p", "B");
  PermutationIndexStore store(g);
  EXPECT_EQ(store.num_triples(), 1u);
}

TEST(PermutationIndexTest, ChoosePermutationCoversAllShapes) {
  IndexPattern p;
  EXPECT_EQ(PermutationIndexStore::ChoosePermutation(p), Permutation::kSpo);
  p.predicate = 1;
  EXPECT_EQ(PermutationIndexStore::ChoosePermutation(p), Permutation::kPso);
  p.object = 2;
  EXPECT_EQ(PermutationIndexStore::ChoosePermutation(p), Permutation::kPos);
  p.predicate.reset();
  EXPECT_EQ(PermutationIndexStore::ChoosePermutation(p), Permutation::kOsp);
  p.subject = 3;
  EXPECT_EQ(PermutationIndexStore::ChoosePermutation(p), Permutation::kSop);
}

// --- Centralized engine ---------------------------------------------------

TEST(CentralizedEngineTest, AnswersQ1) {
  rdf::Graph g = MakeG1();
  PermutationIndexStore store(g);
  CentralizedBgpEngine engine(&store, &g.dictionary());
  auto result = engine.Execute(kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectQ1Result(result->table, g);
  EXPECT_GT(result->index_lookups, 0u);
}

TEST(CentralizedEngineTest, BoundConstantMissingFromDataIsEmpty) {
  rdf::Graph g = MakeG1();
  PermutationIndexStore store(g);
  CentralizedBgpEngine engine(&store, &g.dictionary());
  auto result = engine.Execute("SELECT * WHERE { <Nope> <follows> ?x }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 0u);
}

TEST(CentralizedEngineTest, RejectsOptional) {
  rdf::Graph g = MakeG1();
  PermutationIndexStore store(g);
  CentralizedBgpEngine engine(&store, &g.dictionary());
  auto result = engine.Execute(
      "SELECT * WHERE { ?x <follows> ?y . OPTIONAL { ?y <likes> ?z . } }");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

// --- MapReduce engines ------------------------------------------------------

class MrEngineTest : public ::testing::TestWithParam<MrPlanner> {};

TEST_P(MrEngineTest, AnswersQ1ThroughDiskJobs) {
  rdf::Graph g = MakeG1();
  ScopedTempDir dir;
  MrEngineOptions options;
  options.work_dir = dir.path();
  options.planner = GetParam();
  MrSparqlEngine engine(&g, options);
  auto result = engine.Execute(kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectQ1Result(result->table, g);
  EXPECT_GE(result->jobs, 1u);
  EXPECT_GT(result->metrics.shuffle_bytes, 0u);
}

TEST_P(MrEngineTest, SingleTriplePattern) {
  rdf::Graph g = MakeG1();
  ScopedTempDir dir;
  MrEngineOptions options;
  options.work_dir = dir.path();
  options.planner = GetParam();
  MrSparqlEngine engine(&g, options);
  auto result = engine.Execute("SELECT ?x ?y WHERE { ?x <follows> ?y }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Planners, MrEngineTest,
                         ::testing::Values(MrPlanner::kClauseIteration,
                                           MrPlanner::kMultiJoin));

TEST(MrEngineTest, ShardRunsOneJobPerClause) {
  rdf::Graph g = MakeG1();
  ScopedTempDir dir;
  MrEngineOptions options;
  options.work_dir = dir.path();
  options.planner = MrPlanner::kClauseIteration;
  MrSparqlEngine engine(&g, options);
  auto result = engine.Execute(kQ1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->jobs, 4u);
}

TEST(MrEngineTest, MultiJoinUsesFewerJobs) {
  rdf::Graph g = MakeG1();
  ScopedTempDir dir;
  // Star query: three patterns on the same subject -> one multi-join job.
  MrEngineOptions options;
  options.work_dir = dir.path();
  options.planner = MrPlanner::kMultiJoin;
  MrSparqlEngine pig(&g, options);
  auto result = pig.Execute(
      "SELECT * WHERE { ?x <follows> ?y . ?x <likes> ?w . ?x <follows> ?z }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->jobs, 1u);
}

// --- H2RDF+ ------------------------------------------------------------------

TEST(H2RdfEngineTest, CentralizedForSelectiveQueries) {
  rdf::Graph g = MakeG1();
  ScopedTempDir dir;
  H2RdfOptions options;
  options.centralized_input_limit = 1000;
  options.mr.work_dir = dir.path();
  H2RdfEngine engine(&g, options);
  auto result = engine.Execute(kQ1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->centralized);
  ExpectQ1Result(result->table, g);
}

TEST(H2RdfEngineTest, FallsBackToMapReduceWhenUnselective) {
  rdf::Graph g = MakeG1();
  ScopedTempDir dir;
  H2RdfOptions options;
  options.centralized_input_limit = 2;  // Forces the distributed path.
  options.mr.work_dir = dir.path();
  H2RdfEngine engine(&g, options);
  auto result = engine.Execute(kQ1);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->centralized);
  EXPECT_GE(result->jobs, 1u);
  ExpectQ1Result(result->table, g);
}

TEST(H2RdfEngineTest, EstimateUsesIndexCardinalities) {
  rdf::Graph g = MakeG1();
  ScopedTempDir dir;
  H2RdfOptions options;
  options.mr.work_dir = dir.path();
  H2RdfEngine engine(&g, options);
  auto estimate = engine.EstimateInput(kQ1);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(*estimate, 4u);  // |follows| dominates.
}

// --- Sempala -----------------------------------------------------------------

class SempalaTest
    : public ::testing::TestWithParam<core::PropertyTableStrategy> {};

TEST_P(SempalaTest, AnswersQ1) {
  rdf::Graph g = MakeG1();
  SempalaOptions options;
  options.strategy = GetParam();
  auto engine = SempalaEngine::Create(&g, options);
  ASSERT_TRUE(engine.ok());
  auto result = (*engine)->Execute(kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectQ1Result(result->table, g);
}

TEST_P(SempalaTest, StarQueryIsOneGroup) {
  rdf::Graph g = MakeG1();
  SempalaOptions options;
  options.strategy = GetParam();
  auto engine = SempalaEngine::Create(&g, options);
  ASSERT_TRUE(engine.ok());
  auto result = (*engine)->Execute(
      "SELECT * WHERE { ?x <follows> ?y . ?x <likes> ?w }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->star_groups, 1u);
  // A follows B with likes I1/I2 (2 rows) + C follows D likes I2 (1 row).
  EXPECT_EQ(result->table.NumRows(), 3u);
}

TEST_P(SempalaTest, RepeatedPredicateInStar) {
  rdf::Graph g = MakeG1();
  SempalaOptions options;
  options.strategy = GetParam();
  auto engine = SempalaEngine::Create(&g, options);
  ASSERT_TRUE(engine.ok());
  // ?x follows ?y . ?x follows ?z — requires a self-join.
  auto result = (*engine)->Execute(
      "SELECT * WHERE { ?x <follows> ?y . ?x <follows> ?z }");
  ASSERT_TRUE(result.ok());
  // A: 1x1, B: 2x2, C: 1x1 = 6 combinations.
  EXPECT_EQ(result->table.NumRows(), 6u);
}

TEST_P(SempalaTest, BoundSubjectStar) {
  rdf::Graph g = MakeG1();
  SempalaOptions options;
  options.strategy = GetParam();
  auto engine = SempalaEngine::Create(&g, options);
  ASSERT_TRUE(engine.ok());
  auto result = (*engine)->Execute(
      "SELECT ?w WHERE { <A> <likes> ?w . <A> <follows> <B> }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, SempalaTest,
    ::testing::Values(core::PropertyTableStrategy::kDuplication,
                      core::PropertyTableStrategy::kAuxiliaryTables));

TEST(SempalaEdgeTest, FiltersAndModifiersApply) {
  rdf::Graph g = MakeG1();
  auto engine = SempalaEngine::Create(&g, SempalaOptions());
  ASSERT_TRUE(engine.ok());
  auto result = (*engine)->Execute(
      "SELECT DISTINCT ?y WHERE { ?x <follows> ?y . "
      "FILTER (?y != <D>) } LIMIT 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(), 1u);
}

TEST(SempalaEdgeTest, PredicateAbsentFromDataIsEmpty) {
  rdf::Graph g = MakeG1();
  auto engine = SempalaEngine::Create(&g, SempalaOptions());
  ASSERT_TRUE(engine.ok());
  auto result = (*engine)->Execute(
      "SELECT * WHERE { ?x <unknown_pred> ?y }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 0u);
}

TEST(SempalaEdgeTest, RejectsUnboundPredicate) {
  rdf::Graph g = MakeG1();
  auto engine = SempalaEngine::Create(&g, SempalaOptions());
  ASSERT_TRUE(engine.ok());
  auto result = (*engine)->Execute("SELECT * WHERE { ?x ?p ?y }");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST(MrEngineEdgeTest, CrossJoinBetweenDisconnectedPatterns) {
  rdf::Graph g = MakeG1();
  ScopedTempDir dir;
  MrEngineOptions options;
  options.work_dir = dir.path();
  MrSparqlEngine engine(&g, options);
  // No shared variable: 3 likes x 4 follows = 12 combinations.
  auto result = engine.Execute(
      "SELECT * WHERE { ?a <likes> ?b . ?c <follows> ?d }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(), 12u);
}

TEST(MrEngineEdgeTest, BoundConstantAbsentFromDataYieldsEmpty) {
  rdf::Graph g = MakeG1();
  ScopedTempDir dir;
  MrEngineOptions options;
  options.work_dir = dir.path();
  MrSparqlEngine engine(&g, options);
  auto result = engine.Execute("SELECT * WHERE { <Zz> <follows> ?x }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 0u);
}

TEST(MrEngineEdgeTest, RepeatedVariableWithinPattern) {
  rdf::Graph g;
  g.AddIris("A", "p", "A");
  g.AddIris("A", "p", "B");
  ScopedTempDir dir;
  MrEngineOptions options;
  options.work_dir = dir.path();
  MrSparqlEngine engine(&g, options);
  auto result = engine.Execute("SELECT * WHERE { ?x <p> ?x }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 1u);  // Only the self-loop.
}

TEST(H2RdfEngineTest, RejectsOptionalQueries) {
  rdf::Graph g = MakeG1();
  ScopedTempDir dir;
  H2RdfOptions options;
  options.mr.work_dir = dir.path();
  H2RdfEngine engine(&g, options);
  auto result = engine.Execute(
      "SELECT * WHERE { ?x <follows> ?y . OPTIONAL { ?y <likes> ?z } }");
  EXPECT_FALSE(result.ok());
}

TEST(CentralizedEngineTest, FiltersAndOrderApply) {
  rdf::Graph g = MakeG1();
  PermutationIndexStore store(g);
  CentralizedBgpEngine engine(&store, &g.dictionary());
  auto result = engine.Execute(
      "SELECT ?y WHERE { <B> <follows> ?y . FILTER (?y != <C>) } "
      "ORDER BY ?y");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.NumRows(), 1u);
  EXPECT_EQ(g.dictionary().Decode(result->table.At(0, 0)), "<D>");
}

}  // namespace
}  // namespace s2rdf::baselines
