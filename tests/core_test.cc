#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <utility>

#include "common/file_util.h"
#include "core/compiler.h"
#include "core/layout_names.h"
#include "core/layouts.h"
#include "core/s2rdf.h"
#include "core/table_selection.h"
#include "engine/profile.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "sparql/parser.h"
#include "storage/catalog.h"
#include "tests/table_corruption.h"

// Tests built around the paper's running example: RDF graph G1 (Fig. 1),
// query Q1 (Fig. 2), the ExtVP tables of Fig. 10 and the table selection
// of Fig. 11.

namespace s2rdf::core {
namespace {

// G1 = { A follows B, B follows C, B follows D, C follows D,
//        A likes I1, A likes I2, C likes I2 }.
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

// Q1: friends of friends who like the same things (single result
// x=A, y=B, z=C, w=I2).
constexpr char kQ1[] =
    "SELECT * WHERE { ?x <likes> ?w . ?x <follows> ?y . "
    "?y <follows> ?z . ?z <likes> ?w }";

class ExtVpG1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = MakeG1();
    catalog_ = std::make_unique<storage::Catalog>("");
    ASSERT_TRUE(BuildTriplesTable(graph_, catalog_.get()).ok());
    ASSERT_TRUE(BuildVpLayout(graph_, catalog_.get()).ok());
    auto stats = BuildExtVpLayout(graph_, ExtVpOptions(), catalog_.get());
    ASSERT_TRUE(stats.ok());
    build_stats_ = *stats;
    follows_ = *graph_.dictionary().Find("<follows>");
    likes_ = *graph_.dictionary().Find("<likes>");
  }

  double Sf(Correlation corr, rdf::TermId p1, rdf::TermId p2) {
    const std::optional<storage::TableStats> stats =
        catalog_->GetStats(ExtVpTableName(corr, p1, p2));
    return stats.has_value() ? stats->selectivity : 0.0;
  }

  rdf::Graph graph_;
  std::unique_ptr<storage::Catalog> catalog_;
  ExtVpBuildStats build_stats_;
  rdf::TermId follows_ = 0;
  rdf::TermId likes_ = 0;
};

TEST_F(ExtVpG1Test, VpTablesMatchFig5) {
  const std::optional<storage::TableStats> vf =
      catalog_->GetStats(VpTableName(follows_));
  const std::optional<storage::TableStats> vl =
      catalog_->GetStats(VpTableName(likes_));
  ASSERT_TRUE(vf.has_value());
  ASSERT_TRUE(vl.has_value());
  EXPECT_EQ(vf->rows, 4u);
  EXPECT_EQ(vl->rows, 3u);
}

TEST_F(ExtVpG1Test, SelectivitiesMatchFig10) {
  // Left half of Fig. 10 (tables derived from VP_follows).
  EXPECT_DOUBLE_EQ(Sf(Correlation::kOS, follows_, follows_), 0.5);
  EXPECT_DOUBLE_EQ(Sf(Correlation::kOS, follows_, likes_), 0.25);
  EXPECT_DOUBLE_EQ(Sf(Correlation::kSO, follows_, follows_), 0.75);
  EXPECT_DOUBLE_EQ(Sf(Correlation::kSO, follows_, likes_), 0.0);  // Empty.
  EXPECT_DOUBLE_EQ(Sf(Correlation::kSS, follows_, likes_), 0.5);
  // Right half (derived from VP_likes).
  EXPECT_DOUBLE_EQ(Sf(Correlation::kOS, likes_, follows_), 0.0);  // Empty.
  EXPECT_DOUBLE_EQ(Sf(Correlation::kOS, likes_, likes_), 0.0);    // Empty.
  EXPECT_DOUBLE_EQ(Sf(Correlation::kSO, likes_, follows_), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Sf(Correlation::kSO, likes_, likes_), 0.0);  // Empty.
  EXPECT_DOUBLE_EQ(Sf(Correlation::kSS, likes_, follows_), 1.0);  // = VP.
}

TEST_F(ExtVpG1Test, Sf1TablesAreNotMaterialized) {
  const std::optional<storage::TableStats> stats =
      catalog_->GetStats(ExtVpTableName(Correlation::kSS, likes_, follows_));
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->materialized);
  EXPECT_EQ(build_stats_.tables_equal_vp, 1u);
}

TEST_F(ExtVpG1Test, MaterializedContentsMatchFig10) {
  // ExtVP_OS follows|likes = {(B, C)}.
  auto table =
      catalog_->GetTable(ExtVpTableName(Correlation::kOS, follows_, likes_));
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->NumRows(), 1u);
  EXPECT_EQ((*table)->At(0, 0), *graph_.dictionary().Find("<B>"));
  EXPECT_EQ((*table)->At(0, 1), *graph_.dictionary().Find("<C>"));

  // ExtVP_SO likes|follows = {(C, I2)}.
  auto so =
      catalog_->GetTable(ExtVpTableName(Correlation::kSO, likes_, follows_));
  ASSERT_TRUE(so.ok());
  ASSERT_EQ((*so)->NumRows(), 1u);
  EXPECT_EQ((*so)->At(0, 0), *graph_.dictionary().Find("<C>"));
  EXPECT_EQ((*so)->At(0, 1), *graph_.dictionary().Find("<I2>"));
}

TEST_F(ExtVpG1Test, ExtVpTablesAreSubsetsOfVp) {
  for (const storage::TableStats* stats : catalog_->AllStats()) {
    if (stats->name.rfind("extvp_", 0) != 0 || !stats->materialized) {
      continue;
    }
    EXPECT_GT(stats->rows, 0u);
    EXPECT_LT(stats->selectivity, 1.0);
    EXPECT_GT(stats->selectivity, 0.0);
  }
}

TEST_F(ExtVpG1Test, TableSelectionMatchesFig11) {
  auto parsed = sparql::ParseQuery(kQ1);
  ASSERT_TRUE(parsed.ok());
  const auto& bgp = parsed->where.triples;
  ASSERT_EQ(bgp.size(), 4u);
  const std::shared_ptr<const storage::CatalogState> state =
      catalog_->State();
  const std::vector<PatternIds> ids =
      ResolveBgp(bgp, graph_.dictionary(), *state);

  // TP1 (?x likes ?w): all candidates have SF 1 -> VP_likes.
  auto c1 = SelectTable(0, bgp, ids, Layout::kExtVp, true, *state);
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1->table_name, VpTableName(likes_));
  EXPECT_DOUBLE_EQ(c1->sf, 1.0);

  // TP3 (?y follows ?z): best candidate ExtVP_OS follows|likes, SF 0.25.
  auto c3 = SelectTable(2, bgp, ids, Layout::kExtVp, true, *state);
  ASSERT_TRUE(c3.ok());
  EXPECT_EQ(c3->table_name,
            ExtVpTableName(Correlation::kOS, follows_, likes_));
  EXPECT_DOUBLE_EQ(c3->sf, 0.25);
  EXPECT_EQ(c3->rows, 1u);

  // TP4 (?z likes ?w): ExtVP_SO likes|follows, SF 1/3.
  auto c4 = SelectTable(3, bgp, ids, Layout::kExtVp, true, *state);
  ASSERT_TRUE(c4.ok());
  EXPECT_EQ(c4->table_name,
            ExtVpTableName(Correlation::kSO, likes_, follows_));

  // Under the VP layout every pattern scans its VP table.
  auto v3 = SelectTable(2, bgp, ids, Layout::kVp, true, *state);
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3->table_name, VpTableName(follows_));
}

TEST_F(ExtVpG1Test, Q1HasTheSingleExpectedResult) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  for (Layout layout :
       {Layout::kExtVp, Layout::kVp, Layout::kTriplesTable}) {
    auto result = (*db)->Execute({.query = kQ1, .options = {.layout = layout}});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->table.NumRows(), 1u)
        << "layout " << static_cast<int>(layout);
    auto rows = (*db)->DecodeRows(result->table);
    // Columns in appearance order: x, w, y, z.
    EXPECT_EQ(rows[0][0], "<A>");
    EXPECT_EQ(rows[0][1], "<I2>");
    EXPECT_EQ(rows[0][2], "<B>");
    EXPECT_EQ(rows[0][3], "<C>");
  }
}

TEST_F(ExtVpG1Test, ExtVpReducesJoinComparisons) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto extvp = (*db)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVp}});
  auto vp = (*db)->Execute({.query = kQ1, .options = {.layout = Layout::kVp}});
  ASSERT_TRUE(extvp.ok());
  ASSERT_TRUE(vp.ok());
  // Fig. 8 / Fig. 12: ExtVP reduces both input size and comparisons.
  EXPECT_LT(extvp->metrics.input_tuples, vp->metrics.input_tuples);
  EXPECT_LT(extvp->metrics.join_comparisons, vp->metrics.join_comparisons);
}

TEST_F(ExtVpG1Test, EmptyCorrelationShortCircuits) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  // follows -> SO likes|... wait: ?x follows ?y . ?y likes ?z has
  // OS(follows, likes) = 0.25 (non-empty). Use the empty one:
  // ?x likes ?y . ?y likes ?z (OS likes|likes is empty).
  auto result = (*db)->Execute(
      {.query = "SELECT * WHERE { ?x <likes> ?y . ?y <likes> ?z }",
       .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 0u);
  // The statistics shortcut answers without reading any table.
  EXPECT_EQ(result->metrics.input_tuples, 0u);

  // VP layout actually runs the query (same — empty — result).
  auto vp = (*db)->Execute(
      {.query = "SELECT * WHERE { ?x <likes> ?y . ?y <likes> ?z }",
       .options = {.layout = Layout::kVp}});
  ASSERT_TRUE(vp.ok());
  EXPECT_EQ(vp->table.NumRows(), 0u);
  EXPECT_GT(vp->metrics.input_tuples, 0u);

  // With the shortcut switched off, ExtVP reads its tables too.
  auto unshortcut = (*db)->Execute(
      {.query = "SELECT * WHERE { ?x <likes> ?y . ?y <likes> ?z }",
       .options = {.layout = Layout::kExtVp,
                   .use_statistics_shortcut = false}});
  ASSERT_TRUE(unshortcut.ok());
  EXPECT_EQ(unshortcut->table.NumRows(), 0u);
  EXPECT_GT(unshortcut->metrics.input_tuples, 0u);
}

TEST_F(ExtVpG1Test, ThresholdPrunesButPreservesResults) {
  S2RdfOptions options;
  options.extvp.sf_threshold = 0.3;  // Keeps only SF < 0.3 tables.
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  EXPECT_GT((*db)->load_stats().extvp_stats.tables_pruned, 0u);
  auto result = (*db)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 1u);
}

TEST_F(ExtVpG1Test, UnboundPredicateUsesTriplesTable) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute({.query = "SELECT * WHERE { <A> ?p ?o }",
                                .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 3u);  // follows B, likes I1, likes I2.
}

TEST_F(ExtVpG1Test, JoinOrderOptimizationReducesIntermediates) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto with = (*db)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVp}});
  auto without = (*db)->Execute(
      {.query = kQ1,
       .options = {.layout = Layout::kExtVp,
                   .optimizer = {.reorder_joins = false}}});
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_TRUE(rdf::Table::SameBag(with->table, without->table));
  // Fig. 12: ordering by table size joins the two smallest tables first.
  EXPECT_LE(with->metrics.join_comparisons,
            without->metrics.join_comparisons);
}

// --- Bit-vector ExtVP (the paper's future work, Sec. 8) -----------------

class ExtVpBitmapG1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    S2RdfOptions options;
    options.build_extvp_bitmaps = true;
    auto db = S2Rdf::Create(MakeG1(), options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    const rdf::Dictionary& dict = db_->graph().dictionary();
    follows_ = *dict.Find("<follows>");
    likes_ = *dict.Find("<likes>");
  }

  std::unique_ptr<S2Rdf> db_;
  rdf::TermId follows_ = 0;
  rdf::TermId likes_ = 0;
};

TEST_F(ExtVpBitmapG1Test, BitmapSfsMatchTableSfs) {
  const ExtVpBitmapStore* store = db_->bitmap_store();
  ASSERT_NE(store, nullptr);
  EXPECT_DOUBLE_EQ(store->Sf(Correlation::kOS, follows_, likes_), 0.25);
  EXPECT_DOUBLE_EQ(store->Sf(Correlation::kOS, follows_, follows_), 0.5);
  EXPECT_DOUBLE_EQ(store->Sf(Correlation::kSO, follows_, follows_), 0.75);
  EXPECT_DOUBLE_EQ(store->Sf(Correlation::kSS, likes_, follows_), 1.0);
  EXPECT_TRUE(store->IsEmpty(Correlation::kSO, follows_, likes_));
  EXPECT_TRUE(store->IsEmpty(Correlation::kOS, likes_, likes_));
  // SF = 1 combinations carry no bitmap (the VP table suffices).
  EXPECT_EQ(store->Get(Correlation::kSS, likes_, follows_), nullptr);
  EXPECT_NE(store->Get(Correlation::kOS, follows_, likes_), nullptr);
}

TEST_F(ExtVpBitmapG1Test, BitmapsAreFarSmallerThanTables) {
  const ExtVpBitmapStore* store = db_->bitmap_store();
  ASSERT_NE(store, nullptr);
  EXPECT_GT(store->NumBitmaps(), 0u);
  // Each bitmap costs 8 bytes here (<=64 rows); the table representation
  // stores two uint32 columns per tuple.
  EXPECT_LT(store->TotalBitmapBytes(), 100u);
}

TEST_F(ExtVpBitmapG1Test, Q1MatchesOtherLayouts) {
  auto bitmap = db_->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVpBitmap}});
  ASSERT_TRUE(bitmap.ok()) << bitmap.status().ToString();
  auto extvp = db_->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(extvp.ok());
  EXPECT_TRUE(rdf::Table::SameBag(bitmap->table, extvp->table));
  // The rendered SQL mentions the bitmap filter.
  EXPECT_NE(bitmap->plan->ToSql().find("BITMAP("), std::string::npos);
}

TEST_F(ExtVpBitmapG1Test, IntersectionBeatsBestSingleTable) {
  // TP2 in Q1 (?x follows ?y) has SS follows|likes (SF 0.5) and
  // OS follows|follows (SF 0.5); their intersection is {(A,B)} = 0.25.
  auto bitmap = db_->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVpBitmap}});
  auto extvp = db_->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(bitmap.ok());
  ASSERT_TRUE(extvp.ok());
  EXPECT_LT(bitmap->metrics.input_tuples, extvp->metrics.input_tuples);
}

TEST_F(ExtVpBitmapG1Test, EmptyIntersectionShortCircuits) {
  // ?x likes ?y . ?y likes ?z: OS likes|likes is empty.
  auto result = db_->Execute(
      {.query = "SELECT * WHERE { ?x <likes> ?y . ?y <likes> ?z }",
       .options = {.layout = Layout::kExtVpBitmap}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 0u);
  EXPECT_EQ(result->metrics.input_tuples, 0u);
}

TEST_F(ExtVpBitmapG1Test, RequiresBitmapBuild) {
  S2RdfOptions options;  // build_extvp_bitmaps defaults to false.
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVpBitmap}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExtVpBitmapG1Test, ThresholdDropsBitmapsButKeepsResults) {
  S2RdfOptions options;
  options.build_extvp_bitmaps = true;
  options.extvp.sf_threshold = 0.3;  // Drops the SF 0.5/0.75 bitmaps.
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  EXPECT_LT((*db)->bitmap_store()->NumBitmaps(),
            db_->bitmap_store()->NumBitmaps());
  auto result = (*db)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVpBitmap}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 1u);
}

// --- Filter pushdown, OPTIONAL and UNION execution ------------------------

class SparqlFeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rdf::Graph g = MakeG1();
    // Add ages so FILTER has something numeric to chew on.
    g.AddCanonical("<A>", "<age>",
                   "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
    g.AddCanonical("<B>", "<age>",
                   "\"17\"^^<http://www.w3.org/2001/XMLSchema#integer>");
    g.AddCanonical("<C>", "<age>",
                   "\"30\"^^<http://www.w3.org/2001/XMLSchema#integer>");
    S2RdfOptions options;
    auto db = S2Rdf::Create(std::move(g), options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
  }

  std::unique_ptr<S2Rdf> db_;
};

TEST_F(SparqlFeaturesTest, FilterPushdownPreservesResults) {
  constexpr char kQuery[] =
      "SELECT ?x ?y ?a WHERE { ?x <follows> ?y . ?x <age> ?a . "
      "FILTER (?a >= 30) }";
  auto a = db_->Execute({.query = kQuery});
  auto b = db_->Execute({.query = kQuery, .options = {.push_filters = false}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(rdf::Table::SameBag(a->table, b->table));
  EXPECT_EQ(a->table.NumRows(), 2u);  // A follows B; C follows D.
  // With pushdown the filter sits below the final join.
  EXPECT_LE(a->metrics.intermediate_tuples, b->metrics.intermediate_tuples);
  EXPECT_NE(a->plan->ToString(), b->plan->ToString());
}

TEST_F(SparqlFeaturesTest, FilterReferencingOptionalVarStaysAtGroupLevel) {
  // !BOUND over an OPTIONAL variable must not be pushed into the BGP.
  constexpr char kQuery[] =
      "SELECT ?x ?w WHERE { ?x <follows> ?y . "
      "OPTIONAL { ?x <likes> ?w . } FILTER (!bound(?w)) }";
  auto result = db_->Execute({.query = kQuery});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Only B follows with no likes.
  ASSERT_EQ(result->table.NumRows(), 2u);  // B->C, B->D rows collapse on x,w.
  auto rows = db_->DecodeRows(result->table);
  EXPECT_EQ(rows[0][0], "<B>");
  EXPECT_EQ(rows[0][1], "");
}

TEST_F(SparqlFeaturesTest, OptionalWithInnerFilter) {
  // OPTIONAL { ... FILTER } keeps left rows whose match fails the filter.
  constexpr char kQuery[] =
      "SELECT ?x ?a WHERE { ?x <follows> ?y . "
      "OPTIONAL { ?x <age> ?a . FILTER (?a > 35) } }";
  auto result = db_->Execute({.query = kQuery});
  ASSERT_TRUE(result.ok());
  auto rows = db_->DecodeRows(engine::Distinct(result->table, nullptr));
  // A keeps age 42; B and C follow but their ages fail the filter.
  int bound_ages = 0;
  for (const auto& row : rows) {
    if (!row[1].empty()) ++bound_ages;
  }
  EXPECT_EQ(bound_ages, 1);
}

TEST_F(SparqlFeaturesTest, UnionCombinesBranches) {
  constexpr char kQuery[] =
      "SELECT ?x ?t WHERE { { ?x <likes> ?t . } UNION "
      "{ ?x <age> ?t . } }";
  auto result = db_->Execute({.query = kQuery});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 6u);  // 3 likes + 3 ages.
}

TEST_F(SparqlFeaturesTest, UnionJoinedWithBgp) {
  constexpr char kQuery[] =
      "SELECT ?x ?y ?t WHERE { ?x <follows> ?y . "
      "{ ?x <likes> ?t . } UNION { ?x <age> ?t . } }";
  auto extvp = db_->Execute(
      {.query = kQuery, .options = {.layout = Layout::kExtVp}});
  auto tt = db_->Execute(
      {.query = kQuery, .options = {.layout = Layout::kTriplesTable}});
  ASSERT_TRUE(extvp.ok());
  ASSERT_TRUE(tt.ok());
  EXPECT_TRUE(rdf::Table::SameBag(extvp->table, tt->table));
  EXPECT_GT(extvp->table.NumRows(), 0u);
}

TEST_F(SparqlFeaturesTest, OrderByLimitOffset) {
  constexpr char kQuery[] =
      "SELECT ?x ?a WHERE { ?x <age> ?a . } ORDER BY DESC(?a) "
      "LIMIT 2 OFFSET 1";
  auto result = db_->Execute({.query = kQuery});
  ASSERT_TRUE(result.ok());
  auto rows = db_->DecodeRows(result->table);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "<C>");  // 42 skipped by OFFSET; then 30, 17.
  EXPECT_EQ(rows[1][0], "<B>");
}

TEST(PropertyTableTest, DuplicationMatchesTable1) {
  rdf::Graph g = MakeG1();
  storage::Catalog catalog("");
  auto stats =
      BuildPropertyTable(g, PropertyTableStrategy::kDuplication, &catalog);
  ASSERT_TRUE(stats.ok());
  // Table 1 of the paper has 5 rows: A×2, B×2, C×1.
  EXPECT_EQ(stats->pt_rows, 5u);
  EXPECT_EQ(stats->aux_tables, 0u);
}

TEST(PropertyTableTest, AuxiliaryStrategyBoundsSize) {
  rdf::Graph g = MakeG1();
  storage::Catalog catalog("");
  auto stats = BuildPropertyTable(
      g, PropertyTableStrategy::kAuxiliaryTables, &catalog);
  ASSERT_TRUE(stats.ok());
  // follows and likes are both multi-valued in G1 -> both auxiliary, and
  // the PT itself retains no subjects.
  EXPECT_EQ(stats->aux_tables, 2u);
  EXPECT_EQ(stats->aux_tuples, 7u);
}

// --- Lazy ("pay as you go") ExtVP (paper Sec. 7) --------------------------

TEST(LazyExtVpTest, MaterializesOnFirstUseAndCaches) {
  S2RdfOptions options;
  options.lazy_extvp = true;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  // No load-time ExtVP work.
  EXPECT_EQ((*db)->load_stats().extvp_stats.tables_materialized, 0u);
  EXPECT_EQ((*db)->lazy_pairs_computed(), 0u);

  auto first = (*db)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->table.NumRows(), 1u);
  uint64_t computed = (*db)->lazy_pairs_computed();
  EXPECT_GT(computed, 0u);
  // The warm query selects ExtVP tables (not plain VP).
  EXPECT_NE(first->plan->ToSql().find("extvp_"), std::string::npos);

  // Re-running the same query computes nothing new.
  auto second = (*db)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*db)->lazy_pairs_computed(), computed);
  EXPECT_TRUE(rdf::Table::SameBag(first->table, second->table));
}

TEST(LazyExtVpTest, MatchesEagerResultsAndSelectivities) {
  S2RdfOptions lazy_options;
  lazy_options.lazy_extvp = true;
  auto lazy = S2Rdf::Create(MakeG1(), lazy_options);
  auto eager = S2Rdf::Create(MakeG1(), S2RdfOptions());
  ASSERT_TRUE(lazy.ok());
  ASSERT_TRUE(eager.ok());
  auto a = (*lazy)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVp}});
  auto b = (*eager)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(rdf::Table::SameBag(a->table, b->table));
  // The lazily-computed tables carry the same SF values as Fig. 10.
  const rdf::Dictionary& dict = (*lazy)->graph().dictionary();
  rdf::TermId follows = *dict.Find("<follows>");
  rdf::TermId likes = *dict.Find("<likes>");
  const std::optional<storage::TableStats> stats = (*lazy)->catalog().GetStats(
      ExtVpTableName(Correlation::kOS, follows, likes));
  ASSERT_TRUE(stats.has_value());
  EXPECT_DOUBLE_EQ(stats->selectivity, 0.25);
}

TEST(LazyExtVpTest, EmptyCorrelationShortCircuitsAfterMaterialization) {
  S2RdfOptions options;
  options.lazy_extvp = true;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  // OS likes|likes is empty; the lazy pass records this and the
  // compiler answers from statistics.
  auto result = (*db)->Execute(
      {.query = "SELECT * WHERE { ?x <likes> ?y . ?y <likes> ?z }",
       .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 0u);
  EXPECT_EQ(result->metrics.input_tuples, 0u);
}

TEST(LazyExtVpTest, RespectsSfThreshold) {
  S2RdfOptions options;
  options.lazy_extvp = true;
  options.extvp.sf_threshold = 0.3;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 1u);
  // SF 0.5 tables (e.g. SS follows|likes) were pruned: stats only.
  const rdf::Dictionary& dict = (*db)->graph().dictionary();
  rdf::TermId follows = *dict.Find("<follows>");
  rdf::TermId likes = *dict.Find("<likes>");
  const std::optional<storage::TableStats> stats = (*db)->catalog().GetStats(
      ExtVpTableName(Correlation::kSS, follows, likes));
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->materialized);
}

// A bound predicate that names a term of the data but no predicate:
// <http://e/B> occurs only as a subject and an object, so the store has
// no VP table for it and every pattern over it matches nothing.
TEST(NonPredicateTermTest, MatchesNothingOnEveryLayoutAndLazyStore) {
  auto make_graph = [] {
    rdf::Graph g;
    g.AddIris("http://e/A", "http://e/follows", "http://e/B");
    g.AddIris("http://e/B", "http://e/follows", "http://e/C");
    g.AddIris("http://e/B", "http://e/likes", "http://e/C");
    return g;
  };
  const char* const queries[] = {
      "SELECT * WHERE { ?x <http://e/B> ?y }",
      "SELECT * WHERE { ?x <http://e/follows> ?y . ?y <http://e/B> ?z }",
  };
  S2RdfOptions eager_options;
  eager_options.build_extvp_bitmaps = true;
  auto eager = S2Rdf::Create(make_graph(), eager_options);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  S2RdfOptions lazy_options;
  lazy_options.lazy_extvp = true;
  auto lazy = S2Rdf::Create(make_graph(), lazy_options);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();

  const std::pair<S2Rdf*, Layout> runs[] = {
      {eager->get(), Layout::kExtVp},
      {eager->get(), Layout::kVp},
      {eager->get(), Layout::kTriplesTable},
      {eager->get(), Layout::kExtVpBitmap},
      {lazy->get(), Layout::kExtVp},
  };
  for (const char* query : queries) {
    for (const auto& [db, layout] : runs) {
      SCOPED_TRACE(std::string(query) + " on layout " +
                   std::to_string(static_cast<int>(layout)) +
                   (db == lazy->get() ? " (lazy store)" : ""));
      auto result =
          db->Execute({.query = query, .options = {.layout = layout}});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->table.NumRows(), 0u);
    }
  }
}

TEST(CompilerEdgeTest, CrossJoinBetweenDisconnectedPatterns) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute(
      {.query = "SELECT * WHERE { ?a <likes> ?b . ?c <follows> ?d }"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 12u);
}

TEST(CompilerEdgeTest, RepeatedVariableWithinPattern) {
  rdf::Graph g;
  g.AddIris("A", "p", "A");
  g.AddIris("A", "p", "B");
  S2RdfOptions options;
  auto db = S2Rdf::Create(std::move(g), options);
  ASSERT_TRUE(db.ok());
  for (Layout layout : {Layout::kExtVp, Layout::kVp,
                        Layout::kTriplesTable}) {
    auto result = (*db)->Execute(
        {.query = "SELECT * WHERE { ?x <p> ?x }",
         .options = {.layout = layout}});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->table.NumRows(), 1u);
  }
}

TEST(CompilerEdgeTest, ProjectionOfUnboundVariableIsNullColumn) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute(
      {.query = "SELECT ?x ?nope WHERE { ?x <likes> ?w }"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumColumns(), 2u);
  auto rows = (*db)->DecodeRows(result->table);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0][1], "");  // Unbound decodes to empty.
}

TEST(CompilerEdgeTest, FullyBoundPatternActsAsExistenceCheck) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto hit = (*db)->Execute(
      {.query = "SELECT * WHERE { <A> <follows> <B> . <A> <likes> ?w }"});
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->table.NumRows(), 2u);
  auto miss = (*db)->Execute(
      {.query = "SELECT * WHERE { <A> <follows> <D> . <A> <likes> ?w }"});
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->table.NumRows(), 0u);
}

TEST(CompilerEdgeTest, DuplicateTriplesInInputAreDeduplicated) {
  rdf::Graph g;
  g.AddIris("A", "p", "B");
  g.AddIris("A", "p", "B");
  g.AddIris("A", "p", "B");
  S2RdfOptions options;
  auto db = S2Rdf::Create(std::move(g), options);
  ASSERT_TRUE(db.ok());
  for (Layout layout : {Layout::kExtVp, Layout::kVp,
                        Layout::kTriplesTable}) {
    auto result = (*db)->Execute(
        {.query = "SELECT * WHERE { ?x <p> ?y }",
         .options = {.layout = layout}});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->table.NumRows(), 1u);
  }
}

// --- Solutions that bind no variable ------------------------------------
//
// An all-constant pattern that holds in the data has exactly one
// solution, the empty mapping; SELECT * then answers one row with no
// columns, not zero rows. The cases cover a single pattern, a joined
// pair, and OPTIONAL, UNION and VALUES around it, on every table layout.

struct EmptySolutionCase {
  const char* name;
  const char* query;
  size_t columns;
  size_t rows;
};

constexpr EmptySolutionCase kEmptySolutionCases[] = {
    {"SinglePattern", "SELECT * WHERE { <A> <follows> <B> }", 0, 1},
    {"JoinedPair", "SELECT * WHERE { <A> <follows> <B> . <B> <follows> <C> }",
     0, 1},
    {"OptionalUnmatched",
     "SELECT * WHERE { <A> <follows> <B> OPTIONAL { <B> <follows> <A> } }", 0,
     1},
    {"UnionOfTwoHolding",
     "SELECT * WHERE { { <A> <follows> <B> } UNION { <B> <follows> <C> } }",
     0, 2},
    {"ValuesJoinedWithSubquery",
     "SELECT * WHERE { { SELECT * WHERE { <A> <follows> <B> } } "
     "VALUES ?v { <I1> <I2> } }",
     1, 2},
    {"PatternNotHolding", "SELECT * WHERE { <A> <follows> <C> }", 0, 0},
};

// Keeps the parameter's printed form (and so the test's listed name)
// free of pointer values.
void PrintTo(const EmptySolutionCase& c, std::ostream* os) { *os << c.name; }

class EmptySolutionTest
    : public ::testing::TestWithParam<std::tuple<EmptySolutionCase, Layout>> {
};

TEST_P(EmptySolutionTest, AnswersOneRowPerEmptySolution) {
  const auto& [c, layout] = GetParam();
  auto db = S2Rdf::Create(MakeG1(), S2RdfOptions());
  ASSERT_TRUE(db.ok());
  auto result =
      (*db)->Execute({.query = c.query, .options = {.layout = layout}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumColumns(), c.columns);
  EXPECT_EQ(result->table.NumRows(), c.rows);
  EXPECT_EQ(result->metrics.output_tuples, c.rows);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, EmptySolutionTest,
    ::testing::Combine(::testing::ValuesIn(kEmptySolutionCases),
                       ::testing::Values(Layout::kExtVp, Layout::kVp,
                                         Layout::kTriplesTable)),
    [](const auto& info) {
      const Layout layout = std::get<1>(info.param);
      return std::string(std::get<0>(info.param).name) +
             (layout == Layout::kExtVp ? "_ExtVp"
              : layout == Layout::kVp  ? "_Vp"
                                       : "_TriplesTable");
    });

// --- The query-time table provider ---------------------------------------

rdf::Table MakeTable(uint32_t rows) {
  rdf::Table t({"s", "o"});
  for (uint32_t i = 0; i < rows; ++i) t.AppendRow({i / 10, i * 7 % 97});
  return t;
}

TEST(CatalogProviderTest, ResolvesAndPinsTables) {
  ScopedTempDir dir;
  storage::Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.Put("t1", MakeTable(500), 1.0).ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());
  engine::TableProvider provider = CatalogProvider(&catalog, catalog.State());
  const rdf::Table* table = provider("t1", "");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(provider("missing", ""), nullptr);
  // The pin outlives the catalog's own cache entry.
  catalog.EvictFromMemory("t1");
  EXPECT_EQ(catalog.CachedBytes(), 0u);
  EXPECT_EQ(table->NumRows(), 500u);
  EXPECT_EQ(provider("t1", ""), table);
}

TEST(CatalogProviderTest, CorruptExtVpDegradesToVpOncePerQuery) {
  ScopedTempDir dir;
  storage::Catalog catalog(dir.path());
  const std::string extvp = ExtVpTableName(Correlation::kSS, 1, 2);
  const std::string vp = VpTableName(1);
  rdf::Table reduced({"s", "o"});
  reduced.AppendRow({1, 2});
  ASSERT_TRUE(catalog.Put(extvp, std::move(reduced), 0.5).ok());
  ASSERT_TRUE(catalog.Put(vp, MakeTable(500), 1.0).ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());
  catalog.EvictFromMemory(extvp);
  ASSERT_TRUE(testing::CorruptTable(catalog, extvp));

  engine::TableProvider provider = CatalogProvider(&catalog, catalog.State());
  const rdf::Table* table = provider(extvp, vp);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->NumRows(), 500u);  // The base VP table's (superset) data.
  EXPECT_EQ(catalog.queries_degraded(), 1u);
  EXPECT_TRUE(catalog.State()->quarantined.contains(extvp));
  // Re-resolving within the same query is pinned and counts once.
  EXPECT_EQ(provider(extvp, vp), table);
  EXPECT_EQ(catalog.queries_degraded(), 1u);
  // A scan with no fallback table has nothing to degrade to.
  EXPECT_EQ(provider(VpTableName(3), ""), nullptr);
  EXPECT_EQ(catalog.queries_degraded(), 1u);
  // The next query counts its own degradation.
  EXPECT_EQ(CatalogProvider(&catalog, catalog.State())(extvp, vp)->NumRows(),
            500u);
  EXPECT_EQ(catalog.queries_degraded(), 2u);
}

TEST(LayoutNamesTest, NamesAreMadeOfIds) {
  EXPECT_EQ(TriplesTableName(), "triples");
  EXPECT_EQ(VpTableName(7), "vp_7");
  EXPECT_EQ(ExtVpTableName(Correlation::kOS, 3, 12), "extvp_os_3_12");
  EXPECT_EQ(PropertyTableName(), "pt");
  EXPECT_EQ(PropertyAuxTableName(5), "pt_aux_5");
}

TEST(S2RdfTest, PersistentStorageRoundtrip) {
  s2rdf::ScopedTempDir dir;
  S2RdfOptions options;
  options.storage_dir = dir.path();
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  // The manifest is a generation chain: CURRENT points at the newest
  // self-checksummed generation file.
  EXPECT_TRUE(s2rdf::PathExists(dir.path() + "/CURRENT"));
  EXPECT_TRUE(s2rdf::PathExists(dir.path() + "/manifest-1.tsv"));
  EXPECT_GT((*db)->catalog().TotalBytes(), 0u);
  auto result = (*db)->Execute({.query = kQ1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumRows(), 1u);
}

TEST(S2RdfTest, OpenReloadsPersistedStore) {
  s2rdf::ScopedTempDir dir;
  {
    S2RdfOptions options;
    options.storage_dir = dir.path();
    auto db = S2Rdf::Create(MakeG1(), options);
    ASSERT_TRUE(db.ok());
  }
  // Reopen cold: no graph, only the persisted catalog + dictionary.
  auto reopened = S2Rdf::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto result = (*reopened)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.NumRows(), 1u);
  auto rows = (*reopened)->DecodeRows(result->table);
  EXPECT_EQ(rows[0][0], "<A>");
  // The bit-vector store is not persisted.
  auto bitmap = (*reopened)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVpBitmap}});
  EXPECT_FALSE(bitmap.ok());
}

TEST(S2RdfTest, OpenFailsWithoutPersistedStore) {
  s2rdf::ScopedTempDir dir;
  EXPECT_FALSE(S2Rdf::Open(dir.path()).ok());
  EXPECT_FALSE(S2Rdf::Open("").ok());
}

TEST(S2RdfTest, AskQueries) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto yes = (*db)->Execute({.query = "ASK { <A> <follows> ?x . }"});
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(yes->is_ask);
  EXPECT_TRUE(yes->ask_result);
  auto no = (*db)->Execute({.query = "ASK { <D> <follows> ?x . }"});
  ASSERT_TRUE(no.ok());
  EXPECT_TRUE(no->is_ask);
  EXPECT_FALSE(no->ask_result);
  // The statistics shortcut answers ASK on empty correlations for free.
  auto empty = (*db)->Execute(
      {.query = "ASK { ?x <likes> ?y . ?y <likes> ?z . }",
       .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->ask_result);
  EXPECT_EQ(empty->metrics.input_tuples, 0u);
}

// ASK runs the same path as SELECT: one clock and one compile, so it
// reports the stage split and the plan, and stops after one solution.
// An all-constant pattern that holds is one empty solution on every
// layout.
TEST(S2RdfTest, AskReportsStagesAndPlan) {
  auto db = S2Rdf::Create(MakeG1(), S2RdfOptions());
  ASSERT_TRUE(db.ok());
  auto ask = (*db)->Execute(
      {.query = "ASK { ?x <follows> ?y . ?y <follows> ?z . }"});
  ASSERT_TRUE(ask.ok()) << ask.status().ToString();
  EXPECT_TRUE(ask->ask_result);
  EXPECT_EQ(ask->table.NumRows(), 1u);
  ASSERT_NE(ask->plan, nullptr);
  EXPECT_EQ(ask->plan_fingerprint, engine::PlanFingerprint(*ask->plan));
  EXPECT_NE(ask->plan_fingerprint, 0u);
  EXPECT_EQ(ask->optimizer_mode, "paper");
  const double stages = ask->parse_ms + ask->compile_ms + ask->exec_ms;
  EXPECT_GT(stages, 0.0);
  EXPECT_GE(ask->millis, stages);

  for (Layout layout :
       {Layout::kExtVp, Layout::kVp, Layout::kTriplesTable}) {
    auto holds = (*db)->Execute({.query = "ASK { <A> <follows> <B> }",
                                 .options = {.layout = layout}});
    ASSERT_TRUE(holds.ok()) << holds.status().ToString();
    EXPECT_TRUE(holds->ask_result) << static_cast<int>(layout);
    auto fails = (*db)->Execute({.query = "ASK { <A> <follows> <C> }",
                                 .options = {.layout = layout}});
    ASSERT_TRUE(fails.ok()) << fails.status().ToString();
    EXPECT_FALSE(fails->ask_result) << static_cast<int>(layout);
  }
}

TEST(S2RdfTest, ValuesJoinsWithBgp) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute(
      {.query = "SELECT ?x ?y WHERE { ?x <follows> ?y . "
                "VALUES ?x { <A> <C> } }"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(), 2u);  // A->B, C->D.

  // Standalone VALUES (constants need not exist in the data).
  auto standalone = (*db)->Execute(
      {.query = "SELECT ?x WHERE { VALUES ?x { <NotInData> <A> } }"});
  ASSERT_TRUE(standalone.ok()) << standalone.status().ToString();
  EXPECT_EQ(standalone->table.NumRows(), 2u);

  // Multi-variable rows restrict combinations, not just columns.
  auto multi = (*db)->Execute(
      {.query = "SELECT ?x ?y WHERE { ?x <follows> ?y . "
                "VALUES (?x ?y) { (<A> <B>) (<A> <D>) } }"});
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi->table.NumRows(), 1u);  // Only A->B exists.
}

TEST(S2RdfTest, ConstructBuildsGraph) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute(
      {.query = "CONSTRUCT { ?y <followedBy> ?x . ?x <type> <User> . } "
                "WHERE { ?x <follows> ?y }"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->is_graph);
  // 4 reversed edges + 3 distinct follower subjects typed.
  EXPECT_EQ(result->metrics.output_tuples, 7u);
  EXPECT_NE(result->graph_ntriples.find("<B> <followedBy> <A> ."),
            std::string::npos);
  EXPECT_NE(result->graph_ntriples.find("<A> <type> <User> ."),
            std::string::npos);
  // The output is valid N-Triples.
  rdf::Graph parsed;
  EXPECT_TRUE(rdf::ParseNTriples(result->graph_ntriples, &parsed).ok());
  EXPECT_EQ(parsed.NumTriples(), 7u);
}

TEST(S2RdfTest, ConstructSkipsIllFormedAndUnboundTriples) {
  rdf::Graph g = MakeG1();
  g.AddCanonical("<A>", "<age>",
                 "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  S2RdfOptions options;
  auto db = S2Rdf::Create(std::move(g), options);
  ASSERT_TRUE(db.ok());
  // ?a is a literal: using it as subject is ill-formed and skipped; the
  // OPTIONAL leaves ?w unbound for B, skipping that instantiation.
  auto result = (*db)->Execute(
      {.query = "CONSTRUCT { ?a <of> ?x . ?x <liked> ?w . } WHERE { "
                "?x <age> ?a . OPTIONAL { ?x <likes> ?w . } }"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // A has age + 2 likes -> 2 '<A> <liked> ...' triples; the literal
  // subject triple is dropped.
  EXPECT_EQ(result->metrics.output_tuples, 2u);
  EXPECT_EQ(result->graph_ntriples.find("\"42\""), std::string::npos);
}

TEST(S2RdfTest, DescribeConstantAndVariable) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto constant = (*db)->Execute({.query = "DESCRIBE <A>"});
  ASSERT_TRUE(constant.ok()) << constant.status().ToString();
  EXPECT_EQ(constant->metrics.output_tuples, 3u);  // follows B, likes I1/I2.

  auto variable = (*db)->Execute(
      {.query = "DESCRIBE ?x WHERE { ?x <likes> <I2> }"});
  ASSERT_TRUE(variable.ok());
  // A (3 statements) and C (2 statements).
  EXPECT_EQ(variable->metrics.output_tuples, 5u);

  auto unbound = (*db)->Execute({.query = "DESCRIBE ?x"});
  EXPECT_FALSE(unbound.ok());
}

// CONSTRUCT and DESCRIBE run the same path as SELECT: one clock, one
// compile, so they report the stage split, the plan and its fingerprint.
TEST(S2RdfTest, GraphFormsReportStagesAndPlan) {
  auto db = S2Rdf::Create(MakeG1(), S2RdfOptions());
  ASSERT_TRUE(db.ok());
  auto construct = (*db)->Execute(
      {.query = "CONSTRUCT { ?x <fof> ?z . } "
                "WHERE { ?x <follows> ?y . ?y <follows> ?z . }"});
  ASSERT_TRUE(construct.ok()) << construct.status().ToString();
  EXPECT_TRUE(construct->is_graph);
  // A->C, A->D and B->D, deduplicated.
  EXPECT_EQ(construct->metrics.output_tuples, 3u);
  ASSERT_NE(construct->plan, nullptr);
  EXPECT_EQ(construct->plan_fingerprint,
            engine::PlanFingerprint(*construct->plan));
  EXPECT_NE(construct->plan_fingerprint, 0u);
  EXPECT_EQ(construct->optimizer_mode, "paper");
  const double stages =
      construct->parse_ms + construct->compile_ms + construct->exec_ms;
  EXPECT_GT(stages, 0.0);
  EXPECT_GE(construct->millis, stages);

  // The same WHERE as a SELECT compiles the same plan.
  auto select = (*db)->Execute(
      {.query = "SELECT * WHERE { ?x <follows> ?y . ?y <follows> ?z . }"});
  ASSERT_TRUE(select.ok());
  EXPECT_EQ(select->plan_fingerprint, construct->plan_fingerprint);

  // A DESCRIBE of a constant has no WHERE clause, hence no plan.
  auto describe = (*db)->Execute({.query = "DESCRIBE <A>"});
  ASSERT_TRUE(describe.ok());
  EXPECT_EQ(describe->plan, nullptr);
  EXPECT_EQ(describe->plan_fingerprint, 0u);
  EXPECT_TRUE(describe->optimizer_mode.empty());
  EXPECT_GE(describe->millis, describe->parse_ms + describe->compile_ms +
                                  describe->exec_ms);

  // EXPLAIN covers solution queries only.
  for (const char* graph_query :
       {"CONSTRUCT { ?x <p> ?y . } WHERE { ?x <follows> ?y . }",
        "DESCRIBE <A>"}) {
    auto explained = (*db)->Execute(
        {.query = graph_query, .options = {.explain_plan = true}});
    ASSERT_FALSE(explained.ok()) << graph_query;
    EXPECT_EQ(explained.status().code(), StatusCode::kInvalidArgument);
  }
}

// EXPLAIN ANALYZE of a graph form profiles the WHERE clause's plan, on
// the same clock as its stage split.
TEST(S2RdfTest, GraphFormsCanBeProfiled) {
  auto db = S2Rdf::Create(MakeG1(), S2RdfOptions());
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute(
      {.query = "CONSTRUCT { ?y <followedBy> ?x . } WHERE { ?x <follows> ?y }",
       .options = {.collect_profile = true}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const engine::QueryProfile& profile = result->profile_data;
  ASSERT_FALSE(profile.operators.empty());
  EXPECT_EQ(profile.operators.front().depth, 0);
  EXPECT_EQ(profile.total_ms, result->millis);
  EXPECT_EQ(profile.exec_ms, result->exec_ms);
  EXPECT_NE(engine::RenderProfileText(profile).find("Scan("),
            std::string::npos);
}

// EXPLAIN stops after compiling: the plan and its fingerprint, no rows.
TEST(S2RdfTest, ExplainReturnsThePlanWithoutExecuting) {
  auto db = S2Rdf::Create(MakeG1(), S2RdfOptions());
  ASSERT_TRUE(db.ok());
  auto explained =
      (*db)->Execute({.query = kQ1, .options = {.explain_plan = true}});
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  ASSERT_NE(explained->plan, nullptr);
  EXPECT_EQ(explained->table.NumRows(), 0u);
  EXPECT_EQ(explained->metrics.input_tuples, 0u);
  EXPECT_EQ(explained->exec_ms, 0.0);
  auto executed = (*db)->Execute({.query = kQ1});
  ASSERT_TRUE(executed.ok());
  EXPECT_EQ(explained->plan_fingerprint, executed->plan_fingerprint);
  EXPECT_EQ(explained->plan->ToSql(), executed->plan->ToSql());
}

TEST(S2RdfTest, MemoryBudgetedStoreStillAnswersQueries) {
  s2rdf::ScopedTempDir dir;
  S2RdfOptions options;
  options.storage_dir = dir.path();
  options.memory_budget_bytes = 64;  // Absurdly small: evict everything.
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 3; ++i) {
    auto result = (*db)->Execute(
        {.query = kQ1, .options = {.layout = Layout::kExtVp}});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->table.NumRows(), 1u);
    EXPECT_LE((*db)->catalog().CachedBytes(), 64u);
  }
}

TEST(S2RdfTest, ExplainAnalyzeProfile) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto result =
      (*db)->Execute({.query = kQ1, .options = {.collect_profile = true}});
  ASSERT_TRUE(result.ok());
  const std::string text = engine::RenderProfileText(result->profile_data);
  EXPECT_NE(text.find("Scan("), std::string::npos);
  EXPECT_NE(text.find("Join"), std::string::npos);
  EXPECT_NE(text.find("rows=1"), std::string::npos);
  EXPECT_NE(text.find("ms"), std::string::npos);
  // Without the flag, no profile is collected.
  auto plain = (*db)->Execute({.query = kQ1});
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->profile_data.operators.empty());
}

TEST(S2RdfTest, SqlRenderingMentionsSelectedTables) {
  S2RdfOptions options;
  auto db = S2Rdf::Create(MakeG1(), options);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute(
      {.query = kQ1, .options = {.layout = Layout::kExtVp}});
  ASSERT_TRUE(result.ok());
  const std::string sql = result->plan->ToSql();
  const rdf::Dictionary& dict = (*db)->graph().dictionary();
  const rdf::TermId follows = *dict.Find("<follows>");
  const rdf::TermId likes = *dict.Find("<likes>");
  EXPECT_NE(sql.find(ExtVpTableName(Correlation::kOS, follows, likes)),
            std::string::npos);
  EXPECT_NE(sql.find(VpTableName(likes)), std::string::npos);
}

}  // namespace
}  // namespace s2rdf::core
