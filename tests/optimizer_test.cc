#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/compiler.h"
#include "core/cost_model.h"
#include "core/optimizer.h"
#include "core/s2rdf.h"
#include "tests/table_corruption.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

// Tests for the Optimize stage of the compile pipeline (core/optimizer):
// the cost model, the SF-statistics cardinality estimates surfaced in
// EXPLAIN ANALYZE, and — most importantly — plan equivalence: over the
// whole WatDiv workload the cost-based optimizer must return the exact
// solution bag the paper heuristic returns, on every layout, serial and
// parallel, and on ExtVP-degraded stores where the statistics have
// outlived the tables they describe.

namespace s2rdf::core {
namespace {

constexpr double kScaleFactor = 0.05;
// Large enough that the biggest scans and joins fan out.
constexpr double kFanOutScaleFactor = 1.0;

// One WatDiv store shared by every test in this binary (building the
// layouts dominates the suite's runtime).
S2Rdf* SharedDb() {
  static std::unique_ptr<S2Rdf> db = [] {
    watdiv::GeneratorOptions gen;
    gen.scale_factor = kScaleFactor;
    auto created = S2Rdf::Create(watdiv::Generate(gen), S2RdfOptions());
    if (!created.ok()) return std::unique_ptr<S2Rdf>();
    return std::move(*created);
  }();
  return db.get();
}

// Deterministic instantiation of a workload template (same seed per
// name, so paper and cost modes see byte-identical query text).
std::string QueryText(const watdiv::QueryTemplate& tmpl) {
  SplitMix64 rng(17);
  return watdiv::InstantiateQuery(tmpl, kScaleFactor, &rng);
}

StatusOr<QueryResult> RunQuery(S2Rdf* db, const std::string& text,
                          OptimizerMode mode, Layout layout,
                          bool collect_profile = false) {
  QueryRequest request;
  request.query = text;
  request.options.layout = layout;
  request.options.optimizer.mode = mode;
  request.options.collect_profile = collect_profile;
  return db->Execute(request);
}

// Decoded, sorted solution rows — the canonical comparison form.
std::vector<std::vector<std::string>> SortedRows(S2Rdf* db,
                                                 const QueryResult& result) {
  std::vector<std::vector<std::string>> rows = db->DecodeRows(result.table);
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> CorpusNames() {
  std::vector<std::string> names;
  for (const auto& q : watdiv::BasicTestingQueries()) names.push_back(q.name);
  for (const auto& q : watdiv::IncrementalLinearQueries()) {
    names.push_back(q.name);
  }
  return names;
}

// --- Plan equivalence over the WatDiv corpus -----------------------------

class PlanEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanEquivalenceTest, CostModeMatchesPaperModeOnEveryLayout) {
  S2Rdf* db = SharedDb();
  ASSERT_NE(db, nullptr);
  const watdiv::QueryTemplate* tmpl = watdiv::FindQuery(GetParam());
  ASSERT_NE(tmpl, nullptr);
  const std::string text = QueryText(*tmpl);

  for (Layout layout : {Layout::kExtVp, Layout::kVp}) {
    SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)));
    auto paper = RunQuery(db, text, OptimizerMode::kPaper, layout);
    auto cost = RunQuery(db, text, OptimizerMode::kCost, layout);
    ASSERT_TRUE(paper.ok()) << paper.status().ToString();
    ASSERT_TRUE(cost.ok()) << cost.status().ToString();
    EXPECT_EQ(paper->optimizer_mode, "paper");
    EXPECT_EQ(cost->optimizer_mode, "cost");
    EXPECT_EQ(SortedRows(db, *paper), SortedRows(db, *cost));
  }
}

INSTANTIATE_TEST_SUITE_P(WatDiv, PlanEquivalenceTest,
                         ::testing::ValuesIn(CorpusNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// Equivalence must survive partition-parallel execution: the cost-based
// trees are bushy and algo-annotated, so they exercise the kernels'
// fan-out differently than the paper's left-deep hash chains. The store
// is large enough that scans and joins clear kParallelRowThreshold.
TEST(ParallelEquivalenceTest, CostModeMatchesPaperModeInParallel) {
  watdiv::GeneratorOptions gen;
  gen.scale_factor = kFanOutScaleFactor;
  auto db = S2Rdf::Create(watdiv::Generate(gen), S2RdfOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  size_t fanned_out = 0;
  for (const auto& q : watdiv::BasicTestingQueries()) {
    SCOPED_TRACE(q.name);
    SplitMix64 rng(42);
    const std::string text =
        watdiv::InstantiateQuery(q, kFanOutScaleFactor, &rng);
    auto paper = RunQuery(db->get(), text, OptimizerMode::kPaper,
                          Layout::kExtVp, /*collect_profile=*/true);
    auto cost = RunQuery(db->get(), text, OptimizerMode::kCost,
                         Layout::kExtVp, /*collect_profile=*/true);
    ASSERT_TRUE(paper.ok()) << paper.status().ToString();
    ASSERT_TRUE(cost.ok()) << cost.status().ToString();
    EXPECT_EQ(SortedRows(db->get(), *paper), SortedRows(db->get(), *cost));
    fanned_out += !paper->profile_data.tasks.empty();
    fanned_out += !cost->profile_data.tasks.empty();
  }
  EXPECT_GT(fanned_out, 0u);
}

// --- Degraded catalogs ---------------------------------------------------
//
// SF statistics exist even for tables the store no longer has (Sec. 5.2
// footnote in core/cardinality.h): after every ExtVP table is corrupted
// and quarantined, both optimizers must still agree — with each other
// and with the healthy store.

TEST(DegradedStoreTest, OptimizersAgreeAfterExtVpQuarantine) {
  watdiv::GeneratorOptions gen;
  gen.scale_factor = 0.02;
  rdf::Graph graph = watdiv::Generate(gen);

  s2rdf::ScopedTempDir dir;
  std::vector<std::string> texts;
  std::vector<std::vector<std::vector<std::string>>> healthy;
  {
    S2RdfOptions options;
    options.storage_dir = dir.path();
    auto db = S2Rdf::Create(std::move(graph), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (const auto& q : watdiv::BasicTestingQueries()) {
      SplitMix64 rng(17);
      texts.push_back(watdiv::InstantiateQuery(q, gen.scale_factor, &rng));
      auto result =
          RunQuery(db->get(), texts.back(), OptimizerMode::kPaper, Layout::kExtVp);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      healthy.push_back(SortedRows(db->get(), *result));
    }
  }

  // Flip a bit in the middle of every persisted ExtVP table.
  ASSERT_GT(testing::CorruptTables(dir.path(), "extvp_"), 0);

  auto reopened = S2Rdf::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (size_t i = 0; i < texts.size(); ++i) {
    SCOPED_TRACE(texts[i]);
    auto paper =
        RunQuery(reopened->get(), texts[i], OptimizerMode::kPaper, Layout::kExtVp);
    auto cost =
        RunQuery(reopened->get(), texts[i], OptimizerMode::kCost, Layout::kExtVp);
    ASSERT_TRUE(paper.ok()) << paper.status().ToString();
    ASSERT_TRUE(cost.ok()) << cost.status().ToString();
    EXPECT_EQ(SortedRows(reopened->get(), *paper), healthy[i]);
    EXPECT_EQ(SortedRows(reopened->get(), *cost), healthy[i]);
  }
}

// --- Estimated-vs-actual q-error -----------------------------------------

double QError(double estimated, double actual) {
  // +1 smoothing keeps empty operators comparable.
  const double e = estimated + 1.0;
  const double a = actual + 1.0;
  return std::max(e / a, a / e);
}

TEST(QErrorTest, EstimatesAnnotateEveryBgpOperatorWithinBounds) {
  S2Rdf* db = SharedDb();
  ASSERT_NE(db, nullptr);
  // Bounds calibrated empirically on this generator at scale 0.05. The
  // catalog knows scans almost exactly (residual-equality discounts are
  // the only guess); joins compound the independence assumption, so the
  // per-operator ceiling is loose — the point is to catch order-of-
  // magnitude regressions in the estimator, not to pin exact values.
  constexpr double kMaxScanQError = 64.0;
  constexpr double kMaxJoinQError = 1024.0;
  size_t annotated = 0;
  for (const auto& q : watdiv::BasicTestingQueries()) {
    SCOPED_TRACE(q.name);
    auto result = RunQuery(db, QueryText(q), OptimizerMode::kCost, Layout::kExtVp,
                      /*collect_profile=*/true);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(result->profile_data.operators.empty());
    for (const auto& op : result->profile_data.operators) {
      const bool is_scan = op.label.rfind("Scan", 0) == 0;
      const bool is_join = op.label.rfind("Join", 0) == 0 ||
                           op.label.rfind("MergeJoin", 0) == 0;
      if (!is_scan && !is_join) continue;
      // The tentpole contract: every BGP-pipeline operator carries the
      // optimizer's estimate into EXPLAIN ANALYZE.
      ASSERT_GE(op.estimated_rows, 0.0) << op.label;
      ++annotated;
      const double q_error =
          QError(op.estimated_rows, static_cast<double>(op.output_rows));
      EXPECT_LE(q_error, is_scan ? kMaxScanQError : kMaxJoinQError)
          << op.label << " est=" << op.estimated_rows
          << " actual=" << op.output_rows;
    }
  }
  EXPECT_GT(annotated, 0u);
}

// --- Optimizer knobs -----------------------------------------------------

TEST(OptimizerKnobsTest, SemiJoinToggleChangesPlanNotResults) {
  S2Rdf* db = SharedDb();
  ASSERT_NE(db, nullptr);
  const watdiv::QueryTemplate* tmpl = watdiv::FindQuery("IL-3-8");
  ASSERT_NE(tmpl, nullptr);
  const std::string text = QueryText(*tmpl);

  QueryRequest with_reducers;
  with_reducers.query = text;
  with_reducers.options.layout = Layout::kVp;
  with_reducers.options.optimizer.mode = OptimizerMode::kCost;
  with_reducers.options.optimizer.semi_join_min_rows = 0;
  QueryRequest without_reducers = with_reducers;
  without_reducers.options.optimizer.enable_semi_join = false;

  auto on = db->Execute(with_reducers);
  auto off = db->Execute(without_reducers);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  const std::string on_plan = on->plan->ToString();
  const std::string off_plan = off->plan->ToString();
  EXPECT_NE(on_plan.find("SemiJoinReduce"), std::string::npos) << on_plan;
  EXPECT_EQ(off_plan.find("SemiJoinReduce"), std::string::npos) << off_plan;
  EXPECT_EQ(SortedRows(db, *on), SortedRows(db, *off));
}

TEST(OptimizerKnobsTest, GreedyFallbackMatchesDpResults) {
  S2Rdf* db = SharedDb();
  ASSERT_NE(db, nullptr);
  for (const char* name : {"C2", "F4", "IL-3-10"}) {
    const watdiv::QueryTemplate* tmpl = watdiv::FindQuery(name);
    if (tmpl == nullptr) continue;
    SCOPED_TRACE(name);
    const std::string text = QueryText(*tmpl);
    QueryRequest dp;
    dp.query = text;
    dp.options.optimizer.mode = OptimizerMode::kCost;
    QueryRequest greedy = dp;
    greedy.options.optimizer.dp_pattern_cap = 0;
    auto dp_result = db->Execute(dp);
    auto greedy_result = db->Execute(greedy);
    ASSERT_TRUE(dp_result.ok()) << dp_result.status().ToString();
    ASSERT_TRUE(greedy_result.ok()) << greedy_result.status().ToString();
    EXPECT_EQ(SortedRows(db, *dp_result), SortedRows(db, *greedy_result));

    // Determinism: recompiling the same request reproduces the plan.
    auto again = db->Execute(dp);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->plan_fingerprint, dp_result->plan_fingerprint);
    EXPECT_EQ(again->plan->ToString(), dp_result->plan->ToString());
  }
}

TEST(OptimizerKnobsTest, JoinOrderSwitchKeepsResults) {
  S2Rdf* db = SharedDb();
  ASSERT_NE(db, nullptr);
  const watdiv::QueryTemplate* tmpl = watdiv::FindQuery("F3");
  ASSERT_NE(tmpl, nullptr);
  const std::string text = QueryText(*tmpl);

  auto via_reordered = db->Execute({.query = text});
  auto via_pattern_order = db->Execute(
      {.query = text, .options = {.optimizer = {.reorder_joins = false}}});
  ASSERT_TRUE(via_reordered.ok()) << via_reordered.status().ToString();
  ASSERT_TRUE(via_pattern_order.ok())
      << via_pattern_order.status().ToString();
  EXPECT_EQ(SortedRows(db, *via_reordered),
            SortedRows(db, *via_pattern_order));
}

// --- Analysis and estimator primitives -----------------------------------

BgpAnalysis MakeChainAnalysis() {
  // A 3-pattern chain: p0 -(0.01)- p1 -(0.5)- p2, scan sizes 1000/10/100.
  BgpAnalysis analysis;
  analysis.patterns.resize(3);
  analysis.patterns[0].scan_rows = 1000.0;
  analysis.patterns[1].scan_rows = 10.0;
  analysis.patterns[2].scan_rows = 100.0;
  for (auto& p : analysis.patterns) p.scan_cost = p.scan_rows;
  analysis.patterns[0].variables = {"a", "b"};
  analysis.patterns[1].variables = {"b", "c"};
  analysis.patterns[2].variables = {"c", "d"};
  JoinEdge e01;
  e01.a = 0;
  e01.b = 1;
  e01.shared_vars = 1;
  e01.shared_var = "b";
  e01.selectivity = 0.01;
  JoinEdge e12;
  e12.a = 1;
  e12.b = 2;
  e12.shared_vars = 1;
  e12.shared_var = "c";
  e12.selectivity = 0.5;
  analysis.edges = {e01, e12};
  return analysis;
}

TEST(AnalysisTest, FindEdgeIsOrderInsensitive) {
  BgpAnalysis analysis = MakeChainAnalysis();
  ASSERT_NE(FindEdge(analysis, 0, 1), nullptr);
  ASSERT_NE(FindEdge(analysis, 1, 0), nullptr);
  EXPECT_EQ(FindEdge(analysis, 0, 1), FindEdge(analysis, 1, 0));
  EXPECT_EQ(FindEdge(analysis, 0, 2), nullptr);
}

TEST(AnalysisTest, EstimateSubsetRowsAppliesInternalEdges) {
  BgpAnalysis analysis = MakeChainAnalysis();
  EXPECT_DOUBLE_EQ(EstimateSubsetRows(analysis, 0b001), 1000.0);
  EXPECT_DOUBLE_EQ(EstimateSubsetRows(analysis, 0b011),
                   1000.0 * 10.0 * 0.01);
  // The (0,2) pair has no edge: plain cross-product estimate.
  EXPECT_DOUBLE_EQ(EstimateSubsetRows(analysis, 0b101), 1000.0 * 100.0);
  EXPECT_DOUBLE_EQ(EstimateSubsetRows(analysis, 0b111),
                   1000.0 * 10.0 * 100.0 * 0.01 * 0.5);
}

TEST(AnalysisTest, OptimizersAreDeterministicOnHandBuiltAnalysis) {
  BgpAnalysis analysis = MakeChainAnalysis();
  OptimizerOptions options;
  for (OptimizerMode mode : {OptimizerMode::kPaper, OptimizerMode::kCost}) {
    options.mode = mode;
    auto optimizer = Optimizer::Create(options);
    auto first = optimizer->Optimize(analysis);
    auto second = optimizer->Optimize(analysis);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    // Same tree both times: compare leaf order and estimates.
    std::vector<int> leaves_first, leaves_second;
    auto collect = [](const JoinTree* t, std::vector<int>* out,
                      auto&& self) -> void {
      if (t == nullptr) return;
      if (t->is_leaf()) out->push_back(t->pattern);
      self(t->left.get(), out, self);
      self(t->right.get(), out, self);
    };
    collect(first->get(), &leaves_first, collect);
    collect(second->get(), &leaves_second, collect);
    EXPECT_EQ(leaves_first, leaves_second);
    ASSERT_EQ(leaves_first.size(), 3u);
    EXPECT_DOUBLE_EQ((*first)->est_rows, (*second)->est_rows);
  }
}

// --- Cost model ----------------------------------------------------------

TEST(CostModelTest, JoinAlgoChoiceTracksTheCheaperCost) {
  CostModel model;
  EXPECT_GT(model.ScanCost(2000.0), model.ScanCost(1000.0));

  // Small inputs: hash build is cheap, sorting is not.
  EXPECT_EQ(model.ChooseJoinAlgo(1000.0, 1000.0, 100.0),
            JoinAlgoChoice::kHash);
  // Cache-busting build side: the quadratic hash penalty crosses over.
  EXPECT_EQ(model.ChooseJoinAlgo(1e9, 1e9, 100.0),
            JoinAlgoChoice::kSortMerge);

  for (double rows : {100.0, 1e5, 1e8}) {
    const JoinAlgoChoice algo = model.ChooseJoinAlgo(rows, rows, rows);
    const double chosen = model.JoinCost(algo, rows, rows, rows);
    EXPECT_LE(chosen, model.HashJoinCost(rows, rows, rows));
    EXPECT_LE(chosen, model.SortMergeJoinCost(rows, rows, rows));
  }
}

TEST(CostModelTest, CostsAreMonotonicInOutputSize) {
  CostModel model;
  EXPECT_LT(model.HashJoinCost(1000.0, 1000.0, 10.0),
            model.HashJoinCost(1000.0, 1000.0, 1e6));
  EXPECT_LT(model.SortMergeJoinCost(1000.0, 1000.0, 10.0),
            model.SortMergeJoinCost(1000.0, 1000.0, 1e6));
  EXPECT_LT(model.SemiJoinCost(10.0, 10.0), model.SemiJoinCost(1e6, 1e6));
}

}  // namespace
}  // namespace s2rdf::core
