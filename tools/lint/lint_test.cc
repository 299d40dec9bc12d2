#include "lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

// Self-test for the repo-invariant linter: every rule must fire on its
// violation fixture, stay silent on the suppressed variant, and ignore
// comments and string literals. Fixture files live in testdata/
// (S2RDF_LINT_TESTDATA is injected by CMake).

namespace s2rdf::lint {
namespace {

std::string Testdata(const std::string& name) {
  return std::string(S2RDF_LINT_TESTDATA) + "/" + name;
}

std::set<std::string> RulesIn(const std::vector<Violation>& vs) {
  std::set<std::string> rules;
  for (const Violation& v : vs) rules.insert(v.rule);
  return rules;
}

TEST(LintRawIoTest, FiresOnFopenAndOfstream) {
  auto vs = LintFile(Testdata("raw_io_violation.cc"));
  ASSERT_GE(vs.size(), 2u);
  EXPECT_EQ(RulesIn(vs), std::set<std::string>{"raw-io"});
  // fopen on line 6, std::ofstream on line 8.
  EXPECT_TRUE(std::any_of(vs.begin(), vs.end(),
                          [](const Violation& v) { return v.line == 6; }));
  EXPECT_TRUE(std::any_of(vs.begin(), vs.end(),
                          [](const Violation& v) { return v.line == 8; }));
}

TEST(LintRawIoTest, SameLineAndPrecedingLineSuppressionsWork) {
  EXPECT_TRUE(LintFile(Testdata("raw_io_suppressed.cc")).empty());
}

TEST(LintRawIoTest, AllowedInsideEnvImplementation) {
  const std::string snippet = "FILE* f = fopen(\"x\", \"rb\");\n";
  EXPECT_FALSE(LintContent("src/common/file_util.cc", snippet).empty());
  EXPECT_TRUE(LintContent("src/common/posix_env.cc", snippet).empty());
  EXPECT_TRUE(LintContent("src/common/env.cc", snippet).empty());
}

TEST(LintRawFileMutationTest, FiresOnRenameAndUnlink) {
  auto vs = LintFile(Testdata("raw_file_mutation_violation.cc"));
  ASSERT_GE(vs.size(), 2u);
  EXPECT_EQ(RulesIn(vs), std::set<std::string>{"raw-file-mutation"});
  // std::rename on line 6, ::unlink on line 7.
  EXPECT_TRUE(std::any_of(vs.begin(), vs.end(),
                          [](const Violation& v) { return v.line == 6; }));
  EXPECT_TRUE(std::any_of(vs.begin(), vs.end(),
                          [](const Violation& v) { return v.line == 7; }));
}

TEST(LintRawFileMutationTest, SuppressionsWork) {
  EXPECT_TRUE(LintFile(Testdata("raw_file_mutation_suppressed.cc")).empty());
}

TEST(LintRawFileMutationTest, AllowedInsideCommonAndStorage) {
  const std::string snippet = "int rc = ::rename(tmp, dst);\n";
  EXPECT_FALSE(LintContent("src/core/ingest.cc", snippet).empty());
  EXPECT_TRUE(LintContent("src/common/posix_env.cc", snippet).empty());
  EXPECT_TRUE(LintContent("src/storage/catalog.cc", snippet).empty());
}

TEST(LintRawFileMutationTest, DoesNotFireOnIdentifiersOrMembers) {
  // Identifier substrings ("renamed", "unlink_count") and CamelCase
  // member functions are not the banned libc calls.
  const std::string snippet =
      "void RenameColumn(int);\n"
      "bool renamed = unlink_count > 0;\n"
      "env->RenameFile(a, b);\n";
  EXPECT_TRUE(LintContent("src/engine/x.cc", snippet).empty());
}

TEST(LintBareMutexTest, FiresOnStdMutexAndLockGuard) {
  auto vs = LintFile(Testdata("bare_mutex_violation.cc"));
  ASSERT_GE(vs.size(), 2u);
  EXPECT_EQ(RulesIn(vs), std::set<std::string>{"bare-mutex"});
}

TEST(LintBareMutexTest, SuppressionsWork) {
  EXPECT_TRUE(LintFile(Testdata("bare_mutex_suppressed.cc")).empty());
}

TEST(LintBareMutexTest, AllowedInsideWrapperHeader) {
  // (Guard-less .h snippets still trip include-guard, so assert on the
  // bare-mutex rule specifically.)
  const std::string snippet = "std::mutex mu_;\n";
  EXPECT_TRUE(RulesIn(LintContent("src/server/worker_pool.h", snippet))
                  .contains("bare-mutex"));
  EXPECT_FALSE(RulesIn(LintContent("src/common/mutex.h", snippet))
                   .contains("bare-mutex"));
}

TEST(LintNondeterminismTest, FiresOnRandSrandTimeAndRandomDevice) {
  auto vs = LintFile(Testdata("nondet_violation.cc"));
  EXPECT_EQ(RulesIn(vs), std::set<std::string>{"nondeterminism"});
  // srand, time(nullptr), std::random_device, rand -> at least 4 hits.
  EXPECT_GE(vs.size(), 4u);
}

TEST(LintNondeterminismTest, AllowFileSuppressesWholeFile) {
  EXPECT_TRUE(LintFile(Testdata("nondet_suppressed.cc")).empty());
}

TEST(LintNondeterminismTest, AllowedInsideRandomImplementation) {
  const std::string snippet = "unsigned x = rand();\n";
  EXPECT_FALSE(LintContent("src/core/s2rdf.cc", snippet).empty());
  EXPECT_TRUE(LintContent("src/common/random.cc", snippet).empty());
  EXPECT_FALSE(RulesIn(LintContent("src/common/random.h", snippet))
                   .contains("nondeterminism"));
}

TEST(LintNondeterminismTest, DoesNotFireOnOperandsOrSubstrings) {
  // "strand(" and "Brand(" must not trip the rand/srand tokens;
  // monotonic time calls without nullptr/NULL are not the banned form.
  const std::string snippet =
      "void strand(int);\nint Brand();\nvoid F() { strand(Brand()); }\n"
      "double t = NowSeconds();  // not time(...)\n";
  EXPECT_TRUE(LintContent("src/engine/x.cc", snippet).empty());
}

TEST(LintClockTest, FiresOnSteadyAndSystemClockNow) {
  auto vs = LintFile(Testdata("clock_violation.cc"));
  EXPECT_EQ(RulesIn(vs), std::set<std::string>{"clock"});
  // steady_clock::now (x2) + system_clock::now -> at least 3 hits.
  EXPECT_GE(vs.size(), 3u);
}

TEST(LintClockTest, SuppressionsAndBareTypeMentionsDoNotFire) {
  EXPECT_TRUE(LintFile(Testdata("clock_suppressed.cc")).empty());
}

TEST(LintClockTest, AllowedInsideCommon) {
  const std::string snippet =
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_FALSE(LintContent("src/engine/plan.cc", snippet).empty());
  EXPECT_TRUE(LintContent("src/common/clock.cc", snippet).empty());
}

TEST(LintClockTest, RequiresTheNowCall) {
  // Mentioning the clock type (time_point aliases, template args) is
  // legal everywhere; only the ::now() read is the violation.
  const std::string snippet =
      "using T = std::chrono::steady_clock::time_point;\n"
      "std::chrono::time_point<std::chrono::steady_clock> deadline;\n";
  EXPECT_TRUE(LintContent("src/engine/x.cc", snippet).empty());
}

TEST(LintRawLogTest, FiresOnStderrWritesAndCerr) {
  const std::string snippet =
      "std::fprintf(stderr, \"%s\", line.c_str());\n"
      "std::cerr << \"oops\";\n"
      "fputs(line.c_str(), stderr);\n";
  auto vs = LintContent("src/server/x.cc", snippet);
  EXPECT_EQ(RulesIn(vs), std::set<std::string>{"raw-log"});
  EXPECT_EQ(vs.size(), 3u);
}

TEST(LintRawLogTest, StdoutAndCommonAreExempt) {
  // fprintf(stdout) is an output channel (bench JSON), not a
  // diagnostic; common/ hosts the sink itself.
  EXPECT_TRUE(
      LintContent("src/server/x.cc", "std::fprintf(stdout, \"%s\", s);\n")
          .empty());
  EXPECT_TRUE(
      LintContent("src/common/log.cc", "std::fprintf(stderr, \"%s\", s);\n")
          .empty());
}

TEST(LintRawLogTest, SuppressionsWork) {
  const std::string snippet =
      "std::fprintf(stderr, \"%s\", s);  // s2rdf-lint: allow(raw-log)\n";
  EXPECT_TRUE(LintContent("src/server/x.cc", snippet).empty());
}

TEST(LintIncludeGuardTest, FiresOnPragmaOnce) {
  auto vs = LintFile(Testdata("missing_guard.h"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "include-guard");
}

TEST(LintIncludeGuardTest, AcceptsProperGuard) {
  EXPECT_TRUE(LintFile(Testdata("good_guard.h")).empty());
}

TEST(LintIncludeGuardTest, RequiresMatchingDefine) {
  const std::string mismatched =
      "#ifndef S2RDF_FOO_H_\n#define S2RDF_BAR_H_\n#endif\n";
  auto vs = LintContent("src/foo.h", mismatched);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "include-guard");
  EXPECT_EQ(vs[0].line, 2);
}

TEST(LintIncludeGuardTest, OnlyAppliesToHeaders) {
  EXPECT_TRUE(LintContent("src/foo.cc", "int x = 1;\n").empty());
}

TEST(LintStrippingTest, CommentsAndStringsNeverFire) {
  EXPECT_TRUE(LintFile(Testdata("clean.cc")).empty());
  const std::string tricky =
      "// std::mutex fopen( rand() time(nullptr)\n"
      "/* std::lock_guard<std::mutex> */\n"
      "const char* s = \"fopen(\";\n"
      "const char* r = R\"(std::mutex rand())\";\n";
  EXPECT_TRUE(LintContent("src/engine/doc.cc", tricky).empty());
}

TEST(LintCliContractTest, FormatIsFileLineRuleMessage) {
  Violation v{"src/a.cc", 7, "raw-io", "msg"};
  EXPECT_EQ(FormatViolation(v), "src/a.cc:7: [raw-io] msg");
}

}  // namespace
}  // namespace s2rdf::lint
