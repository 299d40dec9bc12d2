// Tests for the whole-program analyzer: the syntactic model, each
// cross-file pass against its golden fixture trees
// (testdata/wp/<pass>_{ok,bad}/), report shapes (JSON/SARIF), and the
// self-test that the repo tree itself has zero findings.

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer.h"
#include "lint.h"
#include "model.h"
#include "passes/passes.h"
#include "report.h"

namespace s2rdf::lint {
namespace {

std::string Testdata(const std::string& rel) {
  return std::string(S2RDF_LINT_TESTDATA) + "/" + rel;
}

AnalysisResult AnalyzeFixture(const std::string& name) {
  AnalyzerOptions options;
  options.root = Testdata("wp/" + name);
  options.subdirs = {"src"};
  return AnalyzeTree(options);
}

std::vector<Violation> FindingsFor(const AnalysisResult& result,
                                   const std::string& rule) {
  std::vector<Violation> out;
  for (const Violation& v : result.findings) {
    if (v.rule == rule) out.push_back(v);
  }
  return out;
}

// --- Phase 1: tokenizer + model ---------------------------------------------

TEST(Model, TokenizerSkipsCommentsStringsAndPreprocessor) {
  std::vector<Token> toks = Tokenize(
      "#include <mutex>\n"
      "// MutexLock in a comment\n"
      "int x = 1; /* \"quoted\" */ const char* s = \"MutexLock\";\n");
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "MutexLock");
      EXPECT_NE(t.text, "include");
    }
  }
  // The string literal survives as a single kString token.
  int strings = 0;
  for (const Token& t : toks) strings += t.kind == TokenKind::kString;
  EXPECT_EQ(strings, 1);
}

TEST(Model, CapturesIncludesFunctionsLocksAndLoops) {
  FileModel m = BuildFileModel("src/core/x.cc",
                               "#include \"common/mutex.h\"\n"
                               "#include <vector>\n"
                               "namespace s2rdf {\n"
                               "class Cache {\n"
                               " public:\n"
                               "  void Put() {\n"
                               "    MutexLock lock(&mu_);\n"
                               "    for (int i = 0; i < 3; ++i) { Use(i); }\n"
                               "  }\n"
                               " private:\n"
                               "  Mutex mu_;\n"
                               "};\n"
                               "}  // namespace s2rdf\n");
  ASSERT_EQ(m.includes.size(), 2u);
  EXPECT_EQ(m.includes[0].target, "common/mutex.h");
  EXPECT_FALSE(m.includes[0].angled);
  EXPECT_TRUE(m.includes[1].angled);
  ASSERT_EQ(m.functions.size(), 1u);
  const FunctionModel& f = m.functions[0];
  EXPECT_EQ(f.name, "Put");
  EXPECT_EQ(f.qualifier, "Cache");
  ASSERT_EQ(f.locks.size(), 1u);
  EXPECT_EQ(f.locks[0].expr, "mu_");
  EXPECT_GT(f.locks[0].scope_end, f.locks[0].token_index);
  ASSERT_EQ(f.loops.size(), 1u);
  EXPECT_FALSE(f.loops[0].range_for);
  ASSERT_EQ(m.mutex_decls.size(), 1u);
  EXPECT_EQ(m.mutex_decls[0].class_name, "Cache");
  EXPECT_EQ(m.mutex_decls[0].name, "mu_");
}

TEST(Model, AcquiredBeforeAnnotationBecomesOrderEdge) {
  FileModel m = BuildFileModel(
      "src/core/x.h",
      "class Db {\n"
      "  Mutex ingest_mu_ S2RDF_ACQUIRED_BEFORE(lazy_mu_);\n"
      "  Mutex lazy_mu_;\n"
      "};\n");
  ASSERT_EQ(m.order_annotations.size(), 1u);
  EXPECT_EQ(m.order_annotations[0].first, "Db::ingest_mu_");
  EXPECT_EQ(m.order_annotations[0].second, "Db::lazy_mu_");
}

TEST(Model, NoThreadSafetyAnalysisFlagged) {
  FileModel m = BuildFileModel(
      "src/core/x.cc",
      "Catalog& Catalog::operator=(Catalog&& o)"
      " S2RDF_NO_THREAD_SAFETY_ANALYSIS {\n"
      "  MutexLock a(&mu_);\n"
      "  MutexLock b(&o.mu_);\n"
      "  return *this;\n"
      "}\n");
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_TRUE(m.functions[0].no_thread_safety_analysis);
  EXPECT_EQ(m.functions[0].name, "operator=");
}

// --- Layering ---------------------------------------------------------------

TEST(Layering, RankTable) {
  EXPECT_EQ(LayerRank("src/common/mutex.h"), 0);
  EXPECT_EQ(LayerRank("src/storage/catalog.cc"), 1);
  EXPECT_EQ(LayerRank("src/engine/plan.cc"), 2);
  EXPECT_EQ(LayerRank("src/server/worker_pool.cc"), 3);
  EXPECT_EQ(LayerRank("tools/lint/lint.cc"), 4);
  EXPECT_EQ(LayerRank("tests/core_test.cc"), 5);
  EXPECT_EQ(LayerRank("README.md"), -1);
}

TEST(Layering, CleanTreePasses) {
  AnalysisResult result = AnalyzeFixture("layering_ok");
  EXPECT_TRUE(FindingsFor(result, "layering").empty());
  EXPECT_TRUE(FindingsFor(result, "transitive-include").empty());
}

TEST(Layering, BackEdgeCycleAndTransitiveIncludeCaught) {
  AnalysisResult result = AnalyzeFixture("layering_bad");
  std::vector<Violation> layering = FindingsFor(result, "layering");
  bool back_edge = false;
  bool cycle = false;
  for (const Violation& v : layering) {
    if (v.file == "src/storage/store.h" &&
        v.message.find("must not depend on engine") != std::string::npos) {
      back_edge = true;
    }
    if (v.message.find("module dependency cycle") != std::string::npos) {
      cycle = true;
      EXPECT_NE(v.message.find("rdf"), std::string::npos);
      EXPECT_NE(v.message.find("sparql"), std::string::npos);
    }
  }
  EXPECT_TRUE(back_edge);
  EXPECT_TRUE(cycle);
  std::vector<Violation> trans = FindingsFor(result, "transitive-include");
  ASSERT_EQ(trans.size(), 1u);
  EXPECT_EQ(trans[0].file, "src/core/user.cc");
}

// --- Lock order -------------------------------------------------------------

TEST(LockOrder, ConsistentOrderPasses) {
  AnalysisResult result = AnalyzeFixture("lock_order_ok");
  EXPECT_TRUE(FindingsFor(result, "lock-order").empty());
}

TEST(LockOrder, OpposedNestingIsACycle) {
  AnalysisResult result = AnalyzeFixture("lock_order_bad");
  std::vector<Violation> cycles = FindingsFor(result, "lock-order");
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_NE(cycles[0].message.find("acquired-before cycle"),
            std::string::npos);
  EXPECT_NE(cycles[0].message.find("g_first"), std::string::npos);
  EXPECT_NE(cycles[0].message.find("g_second"), std::string::npos);
}

TEST(LockOrder, AnnotationContradictionIsACycle) {
  // A declared order edge opposing a lexical nesting must cycle even
  // though no single function nests both ways.
  ProgramModel program;
  program.files.push_back(BuildFileModel(
      "src/common/a.cc",
      "#include \"common/mutex.h\"\n"
      "namespace s2rdf {\n"
      "Mutex g_a S2RDF_ACQUIRED_BEFORE(g_b);\n"
      "Mutex g_b;\n"
      "void F() {\n"
      "  MutexLock b(&g_b);\n"
      "  MutexLock a(&g_a);\n"
      "}\n"
      "}  // namespace s2rdf\n"));
  std::vector<Violation> out = CheckLockOrder(program);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].message.find("acquired-before cycle"), std::string::npos);
}

TEST(LockOrder, SelfDeadlockThroughCalleeCaught) {
  ProgramModel program;
  program.files.push_back(BuildFileModel(
      "src/common/a.cc",
      "#include \"common/mutex.h\"\n"
      "namespace s2rdf {\n"
      "class C {\n"
      " public:\n"
      "  void Outer() {\n"
      "    MutexLock lock(&mu_);\n"
      "    Inner();\n"
      "  }\n"
      "  void Inner() {\n"
      "    MutexLock lock(&mu_);\n"
      "  }\n"
      " private:\n"
      "  Mutex mu_;\n"
      "};\n"
      "}  // namespace s2rdf\n"));
  std::vector<Violation> out = CheckLockOrder(program);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].message.find("self-deadlock"), std::string::npos);
}

TEST(LockOrder, StlMemberCallsDoNotResolveToProjectMethods) {
  // `by_id_.size()` must not resolve to C::size() (the Dictionary
  // false-positive class).
  ProgramModel program;
  program.files.push_back(BuildFileModel(
      "src/common/a.cc",
      "#include \"common/mutex.h\"\n"
      "namespace s2rdf {\n"
      "class C {\n"
      " public:\n"
      "  size_t size() const {\n"
      "    MutexLock lock(&mu_);\n"
      "    return items_.size();\n"
      "  }\n"
      "  size_t Count() const {\n"
      "    MutexLock lock(&mu_);\n"
      "    return items_.size();\n"
      "  }\n"
      " private:\n"
      "  Mutex mu_;\n"
      "};\n"
      "}  // namespace s2rdf\n"));
  EXPECT_TRUE(CheckLockOrder(program).empty());
}

// --- Interrupt coverage -----------------------------------------------------

TEST(InterruptCoverage, CheckedLoopPasses) {
  AnalysisResult result = AnalyzeFixture("interrupt_ok");
  EXPECT_TRUE(FindingsFor(result, "interrupt-coverage").empty());
}

TEST(InterruptCoverage, UncheckedRowLoopsCaught) {
  AnalysisResult result = AnalyzeFixture("interrupt_bad");
  std::vector<Violation> out = FindingsFor(result, "interrupt-coverage");
  // Both the direct NumRows() loop and the tainted-bound loop.
  EXPECT_EQ(out.size(), 2u);
  for (const Violation& v : out) {
    EXPECT_EQ(v.file, "src/engine/op.cc");
  }
}

TEST(InterruptCoverage, OuterLoopCheckCoversInnerLoop) {
  ProgramModel program;
  program.files.push_back(BuildFileModel(
      "src/engine/join.cc",
      "namespace s2rdf::engine {\n"
      "void Join(const Table& l, const Table& r, ExecContext* ctx,"
      " Table* out) {\n"
      "  for (size_t i = 0; i < l.NumRows(); ++i) {\n"
      "    if ((i % kInterruptCheckRows) == 0 && ctx->CheckInterrupt()) {\n"
      "      break;\n"
      "    }\n"
      "    for (size_t j = 0; j < r.NumRows(); ++j) {\n"
      "      out->AppendRowFrom(l, i);\n"
      "    }\n"
      "  }\n"
      "}\n"
      "}  // namespace s2rdf::engine\n"));
  EXPECT_TRUE(CheckInterruptCoverage(program).empty());
}

TEST(InterruptCoverage, OutsideEngineNotInScope) {
  ProgramModel program;
  program.files.push_back(BuildFileModel(
      "src/storage/scan.cc",
      "void Scan(const Table& t, ExecContext* ctx) {\n"
      "  for (size_t r = 0; r < t.NumRows(); ++r) {}\n"
      "}\n"));
  EXPECT_TRUE(CheckInterruptCoverage(program).empty());
}

// --- Status discipline ------------------------------------------------------

TEST(StatusDiscipline, CheckedUsePasses) {
  AnalysisResult result = AnalyzeFixture("status_ok");
  EXPECT_TRUE(FindingsFor(result, "status-discipline").empty());
}

TEST(StatusDiscipline, UncheckedValueAndDroppedStatusCaught) {
  AnalysisResult result = AnalyzeFixture("status_bad");
  std::vector<Violation> out = FindingsFor(result, "status-discipline");
  ASSERT_EQ(out.size(), 2u);
  bool unchecked = false;
  bool dropped = false;
  for (const Violation& v : out) {
    if (v.message.find("value accessed before ok()") != std::string::npos) {
      unchecked = true;
    }
    if (v.message.find("constructed and never consulted") !=
        std::string::npos) {
      dropped = true;
    }
  }
  EXPECT_TRUE(unchecked);
  EXPECT_TRUE(dropped);
}

TEST(StatusDiscipline, ReturnCountsAsConsulted) {
  ProgramModel program;
  program.files.push_back(BuildFileModel(
      "src/core/a.cc",
      "Status F() {\n"
      "  Status s = G();\n"
      "  return s;\n"
      "}\n"));
  EXPECT_TRUE(CheckStatusDiscipline(program).empty());
}

// --- Suppression hygiene ----------------------------------------------------

TEST(SuppressionHygiene, UsedMarkerIsNotStale) {
  AnalysisResult result = AnalyzeFixture("suppress_ok");
  EXPECT_TRUE(result.findings.empty())
      << FormatViolation(result.findings.front());
  ASSERT_EQ(result.markers.size(), 1u);
  EXPECT_TRUE(result.markers[0].used);
}

TEST(SuppressionHygiene, StaleMarkerIsAFinding) {
  AnalysisResult result = AnalyzeFixture("suppress_bad");
  std::vector<Violation> out = FindingsFor(result, "stale-suppression");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].file, "src/core/io.cc");
  EXPECT_NE(out[0].message.find("allow(raw-io)"), std::string::npos);
}

TEST(SuppressionHygiene, MarkersInStringsAndDocsAreInert) {
  // A marker inside a string literal is not a marker; a doc mention
  // with a placeholder rule name is not tracked.
  std::vector<SuppressionMarker> markers = ParseSuppressionMarkers(
      "const char* kFixture = \"x; // s2rdf-lint: allow(raw-io)\";\n"
      "// syntax: s2rdf-lint: allow(raw-io)\n");
  ASSERT_EQ(markers.size(), 1u);  // only the comment one
  EXPECT_EQ(markers[0].line, 2);
  EXPECT_FALSE(IsKnownRule("<rule>"));
  EXPECT_TRUE(IsKnownRule("raw-io"));
  EXPECT_TRUE(IsKnownRule("interrupt-coverage"));
}

// --- Profiles ---------------------------------------------------------------

TEST(Profiles, RelaxationsPerTopDir) {
  EXPECT_TRUE(RuleEnabledFor("bare-mutex", "src/engine/plan.cc"));
  EXPECT_FALSE(RuleEnabledFor("bare-mutex", "tests/common_test.cc"));
  EXPECT_FALSE(RuleEnabledFor("nondeterminism", "bench/bench_micro.cc"));
  EXPECT_FALSE(RuleEnabledFor("clock", "bench/bench_micro.cc"));
  EXPECT_TRUE(RuleEnabledFor("clock", "tests/engine_test.cc"));
  EXPECT_FALSE(RuleEnabledFor("raw-io", "tools/bulkload/main.cc"));
  EXPECT_TRUE(RuleEnabledFor("raw-io", "src/core/s2rdf.cc"));
  EXPECT_TRUE(RuleEnabledFor("layering", "tests/engine_test.cc"));
}

TEST(Profiles, TreeRunAppliesLineRulesPerTopDir) {
  // The tree run is the only gate, so it must report the per-file line
  // rules too: the stdio call in src/storage/ is a raw-io finding, the
  // identical one under the relaxed tools/ profile is not.
  AnalyzerOptions options;
  options.root = Testdata("wp/line_rules_bad");
  options.subdirs = {"src", "tools"};
  AnalysisResult result = AnalyzeTree(options);
  EXPECT_EQ(result.files_scanned, 2u);
  std::vector<Violation> raw_io = FindingsFor(result, "raw-io");
  ASSERT_EQ(raw_io.size(), 1u);
  EXPECT_EQ(raw_io[0].file, "src/storage/raw.cc");
  EXPECT_EQ(raw_io[0].line, 7);
  EXPECT_EQ(result.findings.size(), 1u);
}

// --- Report shapes ----------------------------------------------------------

AnalysisResult OneFinding() {
  AnalysisResult result;
  result.files_scanned = 3;
  result.findings.push_back(
      {"src/a.cc", 12, "layering", "include of \"x\" crosses layering"});
  return result;
}

TEST(Report, JsonShape) {
  AnalysisResult result = OneFinding();
  std::string json = RenderJson(result);
  EXPECT_NE(json.find("\"tool\":\"s2rdf_lint\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\":3"), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"src/a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":12"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"layering\""), std::string::npos);
  // The embedded quotes must be escaped.
  EXPECT_NE(json.find("include of \\\"x\\\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressions\""), std::string::npos);
}

TEST(Report, SarifShape) {
  AnalysisResult result = OneFinding();
  std::string sarif = RenderSarif(result);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"s2rdf_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"layering\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":12"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"src/a.cc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"rules\":[{\"id\":\"layering\"}]"),
            std::string::npos);
}

// --- The repo itself --------------------------------------------------------

TEST(RepoTree, HasZeroFindings) {
  AnalyzerOptions options;
  options.root = S2RDF_LINT_REPO_ROOT;
  options.subdirs = {"src", "tests", "bench", "tools"};
  // Wall-clock measurement of the tool itself; no injectable clock in
  // play here.
  auto start = std::chrono::steady_clock::now();  // s2rdf-lint: allow(clock)
  AnalysisResult result = AnalyzeTree(options);
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() -  // s2rdf-lint: allow(clock)
                    start)
                    .count();
  for (const Violation& v : result.findings) {
    ADD_FAILURE() << FormatViolation(v);
  }
  EXPECT_GT(result.files_scanned, 100u);
  // EXPERIMENTS.md promises < 5s on the full tree; leave slack for
  // loaded CI machines but catch order-of-magnitude regressions.
  EXPECT_LT(secs, 30.0);
}

}  // namespace
}  // namespace s2rdf::lint
