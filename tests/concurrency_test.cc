#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "core/s2rdf.h"
#include "engine/aggregate.h"
#include "engine/operators.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/table.h"

// Concurrency tests for the S2Rdf facade: many threads sharing one
// instance (with lazy ExtVP and a tiny memory budget to force eviction
// races) must produce exactly the results a serial run produces, and
// the per-query QueryOptions (timeout, cancellation, row limits) must
// be honored. Run these under -DS2RDF_SANITIZE=thread to validate the
// locking story.

namespace s2rdf::core {
namespace {

// A small social graph with enough distinct predicates and join shapes
// to make the lazy-ExtVP pass materialize several reductions.
rdf::Graph MakeSocialGraph(int n) {
  rdf::Graph g;
  for (int i = 0; i < n; ++i) {
    std::string person = "P" + std::to_string(i);
    g.AddIris(person, "follows", "P" + std::to_string((i + 1) % n));
    g.AddIris(person, "follows", "P" + std::to_string((i + 7) % n));
    g.AddIris(person, "likes", "I" + std::to_string(i % 10));
    if (i % 3 == 0) {
      g.AddIris(person, "knows", "P" + std::to_string((i + 2) % n));
    }
  }
  return g;
}

// A mixed workload: scans, chain joins, star joins, UNION, OPTIONAL,
// aggregation (which encodes new literals mid-query) and DISTINCT with
// ORDER BY.
const char* const kMixedQueries[] = {
    "SELECT ?x ?y WHERE { ?x <follows> ?y . }",
    "SELECT ?x ?z WHERE { ?x <follows> ?y . ?y <follows> ?z . }",
    "SELECT ?x ?i WHERE { ?x <follows> ?y . ?x <likes> ?i . }",
    "SELECT ?x WHERE { { ?x <follows> <P1> . } UNION "
    "{ ?x <likes> <I1> . } }",
    "SELECT ?y ?i WHERE { ?x <follows> ?y . OPTIONAL "
    "{ ?y <likes> ?i . } }",
    "SELECT ?i (COUNT(?x) AS ?n) WHERE { ?x <likes> ?i . } GROUP BY ?i",
    "SELECT DISTINCT ?y WHERE { ?x <knows> ?y . } ORDER BY ?y",
};
constexpr size_t kNumMixedQueries =
    sizeof(kMixedQueries) / sizeof(kMixedQueries[0]);

std::vector<std::vector<std::string>> SortedRows(const S2Rdf& db,
                                                 const rdf::Table& table) {
  std::vector<std::vector<std::string>> rows = db.DecodeRows(table);
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ConcurrencyStressTest, ParallelMixedQueriesMatchSerial) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  static_assert(kThreads * kRounds * kNumMixedQueries >= 100);

  // Lazy ExtVP + a deliberately tiny memory budget: queries race on
  // first-use materialization and on cache eviction/reload.
  ScopedTempDir serial_dir;
  S2RdfOptions options;
  options.storage_dir = serial_dir.path();
  options.lazy_extvp = true;
  options.memory_budget_bytes = 4096;
  auto serial = S2Rdf::Create(MakeSocialGraph(40), options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  std::vector<std::vector<std::vector<std::string>>> expected;
  for (const char* query : kMixedQueries) {
    auto result = (*serial)->Execute({.query = query});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(SortedRows(**serial, result->table));
  }

  ScopedTempDir shared_dir;
  options.storage_dir = shared_dir.path();
  auto shared = S2Rdf::Create(MakeSocialGraph(40), options);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();

  // gtest assertions are not thread-safe; workers only bump counters.
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Stagger the starting query per thread so different queries
        // overlap in time.
        for (size_t q = 0; q < kNumMixedQueries; ++q) {
          size_t index = (q + static_cast<size_t>(t)) % kNumMixedQueries;
          QueryRequest request;
          request.query = kMixedQueries[index];
          auto result = (*shared)->Execute(request);
          if (!result.ok()) {
            ++failures;
            continue;
          }
          if (SortedRows(**shared, result->table) != expected[index]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // The once-per-pair guard must have prevented duplicate lazy builds:
  // the concurrent instance computes exactly the pairs the serial one
  // does.
  EXPECT_EQ((*shared)->lazy_pairs_computed(),
            (*serial)->lazy_pairs_computed());
}

// The same mixed workload with intra-query morsel parallelism: the
// graph is sized so scans and joins clear kParallelRowThreshold and fan
// out, every query draws helper tasks from the one shared TaskPool, and
// concurrent results must still match one-at-a-time execution exactly.
TEST(ConcurrencyStressTest, ParallelExecutionMixedQueriesMatchSerial) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 2;

  auto shared = S2Rdf::Create(MakeSocialGraph(2500), S2RdfOptions());
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  std::vector<std::vector<std::vector<std::string>>> expected;
  for (const char* query : kMixedQueries) {
    auto result = (*shared)->Execute({.query = query});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(SortedRows(**shared, result->table));
  }

  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < kNumMixedQueries; ++q) {
          size_t index = (q + static_cast<size_t>(t)) % kNumMixedQueries;
          QueryRequest request;
          request.query = kMixedQueries[index];
          auto result = (*shared)->Execute(request);
          if (!result.ok()) {
            ++failures;
            continue;
          }
          if (SortedRows(**shared, result->table) != expected[index]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// --- QueryOptions behavior -------------------------------------------------

// ~1200x1200 unconstrained cross product: long enough that a 1 ms
// deadline always expires mid-execution.
std::unique_ptr<S2Rdf> MakeCrossJoinDb() {
  rdf::Graph g;
  for (int i = 0; i < 1200; ++i) {
    g.AddIris("A" + std::to_string(i), "p", "B" + std::to_string(i));
    g.AddIris("C" + std::to_string(i), "q", "D" + std::to_string(i));
  }
  auto db = S2Rdf::Create(std::move(g), S2RdfOptions());
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

TEST(QueryOptionsTest, TimeoutReturnsDeadlineExceeded) {
  std::unique_ptr<S2Rdf> db = MakeCrossJoinDb();
  QueryRequest request;
  request.query = "SELECT * WHERE { ?a <p> ?b . ?c <q> ?d . }";
  request.options.timeout_ms = 1;
  auto result = db->Execute(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // The same query completes without a deadline.
  request.options.timeout_ms = 0;
  auto full = db->Execute(request);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->table.NumRows(), 1200u * 1200u);
}

TEST(QueryOptionsTest, CancelFlagReturnsCancelled) {
  auto db = S2Rdf::Create(MakeSocialGraph(10), S2RdfOptions());
  ASSERT_TRUE(db.ok());
  std::atomic<bool> cancel{true};
  QueryRequest request;
  request.query = "SELECT ?x ?y WHERE { ?x <follows> ?y . }";
  request.options.cancel = &cancel;
  auto result = (*db)->Execute(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // Unset flag: the query runs normally.
  cancel = false;
  auto ok = (*db)->Execute(request);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT(ok->table.NumRows(), 0u);
}

TEST(QueryOptionsTest, MaxResultRowsTruncates) {
  auto db = S2Rdf::Create(MakeSocialGraph(20), S2RdfOptions());
  ASSERT_TRUE(db.ok());
  QueryRequest request;
  request.query = "SELECT ?x ?y WHERE { ?x <follows> ?y . }";

  auto full = (*db)->Execute(request);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->truncated);
  ASSERT_GT(full->table.NumRows(), 5u);

  request.options.max_result_rows = 5;
  auto limited = (*db)->Execute(request);
  ASSERT_TRUE(limited.ok());
  EXPECT_TRUE(limited->truncated);
  EXPECT_EQ(limited->table.NumRows(), 5u);

  // A limit at or above the result size truncates nothing.
  request.options.max_result_rows = full->table.NumRows();
  auto exact = (*db)->Execute(request);
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(exact->truncated);
  EXPECT_EQ(exact->table.NumRows(), full->table.NumRows());

  // The cap applies to solutions, not to the statements of a graph.
  request.query = "CONSTRUCT { ?y <followedBy> ?x . } "
                  "WHERE { ?x <follows> ?y . }";
  request.options.max_result_rows = 5;
  auto graph = (*db)->Execute(request);
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(graph->truncated);
  EXPECT_EQ(graph->metrics.output_tuples, full->table.NumRows());
}

TEST(QueryOptionsTest, LayoutOverrideSelectsLayout) {
  auto db = S2Rdf::Create(MakeSocialGraph(20), S2RdfOptions());
  ASSERT_TRUE(db.ok());
  QueryRequest request;
  // <knows> covers only a third of the subjects, so the <likes> side's
  // OS reduction is selective enough to be materialized (SF < 1).
  request.query = "SELECT ?x ?i WHERE { ?x <knows> ?y . ?y <likes> ?i . }";
  request.options.layout = Layout::kExtVp;
  auto extvp = (*db)->Execute(request);
  ASSERT_TRUE(extvp.ok());
  EXPECT_NE(extvp->plan->ToSql().find("extvp_"), std::string::npos);

  request.options.layout = Layout::kVp;
  auto vp = (*db)->Execute(request);
  ASSERT_TRUE(vp.ok());
  EXPECT_EQ(vp->plan->ToSql().find("extvp_"), std::string::npos);
  EXPECT_TRUE(rdf::Table::SameBag(extvp->table, vp->table));
}

TEST(QueryOptionsTest, TimeoutAppliesToGraphForms) {
  std::unique_ptr<S2Rdf> db = MakeCrossJoinDb();
  QueryRequest request;
  request.query =
      "CONSTRUCT { ?a <pair> ?c . } WHERE { ?a <p> ?b . ?c <q> ?d . }";
  request.options.timeout_ms = 1;
  auto result = db->Execute(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// Concurrent queries with per-query deadlines: slow cross joins time
// out while quick scans sharing the same instance still succeed.
TEST(ConcurrencyStressTest, MixedDeadlinesDoNotInterfere) {
  std::unique_ptr<S2Rdf> db = MakeCrossJoinDb();
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5; ++i) {
        QueryRequest request;
        if (t % 2 == 0) {
          request.query = "SELECT * WHERE { ?a <p> ?b . ?c <q> ?d . }";
          request.options.timeout_ms = 1;
          auto result = db->Execute(request);
          if (result.ok() ||
              result.status().code() != StatusCode::kDeadlineExceeded) {
            ++unexpected;
          }
        } else {
          request.query = "SELECT ?a ?b WHERE { ?a <p> ?b . }";
          auto result = db->Execute(request);
          if (!result.ok() || result->table.NumRows() != 1200u) {
            ++unexpected;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(unexpected.load(), 0);
}

// --- Operator interrupt coverage -------------------------------------------
//
// Engine-level regression tests: every operator's row loops consult the
// interrupt state at least every kInterruptCheckRows rows. With an
// already-expired deadline the very first check fires, so each operator
// must abandon its work (empty or partial output), record the reason in
// interrupt_status, and still complete normally with a fresh context.

engine::ExecContext ExpiredDeadline() {
  engine::ExecContext ctx;
  ctx.has_deadline = true;
  // ExecContext deadlines are steady_clock time_points by contract;
  // deriving one from the real clock is the seam's own currency.
  ctx.deadline =  // s2rdf-lint: allow(clock)
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  return ctx;
}

// n rows of (i+1, i+1): two such tables join 1:1 on a shared column.
rdf::Table SeqPairs(const char* c0, const char* c1, size_t n) {
  rdf::Table t({c0, c1});
  for (size_t i = 0; i < n; ++i) {
    t.AppendRow({static_cast<rdf::TermId>(i + 1),
                 static_cast<rdf::TermId>(i + 1)});
  }
  return t;
}

TEST(OperatorInterruptTest, SortMergeJoinHonorsDeadline) {
  rdf::Table left = SeqPairs("x", "y", 6000);
  rdf::Table right = SeqPairs("y", "z", 6000);
  engine::ExecContext expired = ExpiredDeadline();
  rdf::Table out = engine::SortMergeJoin(left, right, &expired);
  EXPECT_EQ(out.NumRows(), 0u);
  EXPECT_EQ(expired.interrupt_status.code(), StatusCode::kDeadlineExceeded);

  engine::ExecContext fresh;
  rdf::Table full = engine::SortMergeJoin(left, right, &fresh);
  EXPECT_TRUE(fresh.interrupt_status.ok());
  EXPECT_EQ(full.NumRows(), 6000u);
}

TEST(OperatorInterruptTest, SemiJoinHonorsDeadline) {
  rdf::Table left = SeqPairs("x", "y", 6000);
  rdf::Table right = SeqPairs("y", "z", 6000);
  engine::ExecContext expired = ExpiredDeadline();
  rdf::Table out = engine::SemiJoin(left, 1, right, 0, &expired);
  EXPECT_EQ(out.NumRows(), 0u);
  EXPECT_EQ(expired.interrupt_status.code(), StatusCode::kDeadlineExceeded);

  engine::ExecContext fresh;
  rdf::Table full = engine::SemiJoin(left, 1, right, 0, &fresh);
  EXPECT_TRUE(fresh.interrupt_status.ok());
  EXPECT_EQ(full.NumRows(), 6000u);
}

TEST(OperatorInterruptTest, LeftOuterJoinHonorsDeadline) {
  rdf::Table left = SeqPairs("x", "y", 6000);
  rdf::Table right = SeqPairs("y", "z", 6000);
  rdf::Dictionary dict;
  engine::ExecContext expired = ExpiredDeadline();
  rdf::Table out =
      engine::LeftOuterJoin(left, right, nullptr, dict, &expired);
  EXPECT_EQ(out.NumRows(), 0u);
  EXPECT_EQ(expired.interrupt_status.code(), StatusCode::kDeadlineExceeded);

  engine::ExecContext fresh;
  rdf::Table full =
      engine::LeftOuterJoin(left, right, nullptr, dict, &fresh);
  EXPECT_TRUE(fresh.interrupt_status.ok());
  EXPECT_EQ(full.NumRows(), 6000u);
}

TEST(OperatorInterruptTest, UnionAllHonorsDeadline) {
  rdf::Table a = SeqPairs("x", "y", 6000);
  rdf::Table b = SeqPairs("y", "z", 6000);
  engine::ExecContext expired = ExpiredDeadline();
  rdf::Table out = engine::UnionAll(a, b, &expired);
  EXPECT_EQ(out.NumRows(), 0u);
  EXPECT_EQ(expired.interrupt_status.code(), StatusCode::kDeadlineExceeded);

  engine::ExecContext fresh;
  rdf::Table full = engine::UnionAll(a, b, &fresh);
  EXPECT_TRUE(fresh.interrupt_status.ok());
  EXPECT_EQ(full.NumRows(), 12000u);
}

TEST(OperatorInterruptTest, DistinctHonorsDeadline) {
  rdf::Table t({"a", "b"});
  for (size_t i = 0; i < 6000; ++i) {
    t.AppendRow({static_cast<rdf::TermId>(i % 100 + 1),
                 static_cast<rdf::TermId>(i % 100 + 1)});
  }
  engine::ExecContext expired = ExpiredDeadline();
  rdf::Table out = engine::Distinct(t, &expired);
  EXPECT_EQ(out.NumRows(), 0u);
  EXPECT_EQ(expired.interrupt_status.code(), StatusCode::kDeadlineExceeded);

  engine::ExecContext fresh;
  rdf::Table full = engine::Distinct(t, &fresh);
  EXPECT_TRUE(fresh.interrupt_status.ok());
  EXPECT_EQ(full.NumRows(), 100u);
}

TEST(OperatorInterruptTest, OrderByHonorsDeadline) {
  rdf::Dictionary dict;
  std::vector<rdf::TermId> terms;
  for (int i = 0; i < 100; ++i) {
    terms.push_back(dict.Encode(
        "\"" + std::to_string(i) +
        "\"^^<http://www.w3.org/2001/XMLSchema#integer>"));
  }
  rdf::Table t({"n"});
  for (size_t i = 0; i < 6000; ++i) {
    t.AppendRow({terms[(i * 37) % terms.size()]});
  }
  engine::ExecContext expired = ExpiredDeadline();
  rdf::Table out = engine::OrderBy(t, {{"n", true}}, dict, &expired);
  EXPECT_EQ(out.NumRows(), 0u);
  EXPECT_EQ(expired.interrupt_status.code(), StatusCode::kDeadlineExceeded);

  engine::ExecContext fresh;
  rdf::Table full = engine::OrderBy(t, {{"n", true}}, dict, &fresh);
  EXPECT_TRUE(fresh.interrupt_status.ok());
  ASSERT_EQ(full.NumRows(), 6000u);
  EXPECT_EQ(full.At(0, 0), terms[0]);
}

TEST(OperatorInterruptTest, GroupByAggregateHonorsDeadline) {
  rdf::Table t({"k", "v"});
  for (size_t i = 0; i < 6000; ++i) {
    t.AppendRow({static_cast<rdf::TermId>(i % 50 + 1),
                 static_cast<rdf::TermId>(i + 1)});
  }
  rdf::Dictionary dict;
  std::vector<sparql::AggregateSpec> specs = {
      {sparql::AggregateSpec::Fn::kCountStar, "", "n", false}};

  engine::ExecContext expired = ExpiredDeadline();
  auto out = engine::GroupByAggregate(t, {"k"}, specs, &dict, &expired);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 0u);
  EXPECT_EQ(expired.interrupt_status.code(), StatusCode::kDeadlineExceeded);

  engine::ExecContext fresh;
  auto full = engine::GroupByAggregate(t, {"k"}, specs, &dict, &fresh);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(fresh.interrupt_status.ok());
  EXPECT_EQ(full->NumRows(), 50u);
}

}  // namespace
}  // namespace s2rdf::core
