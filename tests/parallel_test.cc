// Kernel-vs-reference parity suite (`ctest -L parallel`): every morsel
// kernel of the engine (scan, filter, hash join, distinct, order-by,
// group-by) must produce the output table — row order included — and
// the ExecMetrics of its row-at-a-time reference (tests/reference_ops.h)
// byte for byte, and record the same interrupt status. The suite runs
// twice (tests/CMakeLists.txt): with S2RDF_TASK_POOL_THREADS=4, where
// inputs of kParallelRowThreshold rows or more fan out over the pool,
// and with S2RDF_TASK_POOL_THREADS=1, where every kernel runs inline as
// one morsel and one partition.
//
// The speedup test is a gate, not a benchmark: on hosts with >= 4
// hardware cores and a pool of width >= 4 the data-parallel kernels must
// beat their references by S2RDF_BENCH_SPEEDUP_FLOOR (default 1.5x).
// Elsewhere it GTEST_SKIPs — visibly, via the SKIP_REGULAR_EXPRESSION
// property tests/CMakeLists.txt attaches — never silently passes.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitmap.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "common/task_pool.h"
#include "engine/aggregate.h"
#include "engine/expression.h"
#include "engine/operators.h"
#include "engine/plan.h"
#include "rdf/dictionary.h"
#include "rdf/table.h"
#include "tests/reference_ops.h"

namespace s2rdf::engine {
namespace {

namespace ref = s2rdf::reference;

// Exact (row-order-sensitive) table equality: the kernels promise
// byte-identical output, not just the same bag.
void ExpectIdenticalTables(const Table& a, const Table& b) {
  ASSERT_EQ(a.column_names(), b.column_names());
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    EXPECT_EQ(a.Column(c), b.Column(c)) << "column " << c;
  }
}

void ExpectIdenticalMetrics(const ExecMetrics& a, const ExecMetrics& b) {
  EXPECT_EQ(a.input_tuples, b.input_tuples);
  EXPECT_EQ(a.intermediate_tuples, b.intermediate_tuples);
  EXPECT_EQ(a.join_comparisons, b.join_comparisons);
  EXPECT_EQ(a.shuffled_tuples, b.shuffled_tuples);
  EXPECT_EQ(a.output_tuples, b.output_tuples);
}

// --- Filter ------------------------------------------------------------------

// A table whose "o" column holds numeric literals, IRIs and nulls: the
// value-typed comparison must produce true, false and error verdicts.
Table MixedLiteralTable(rdf::Dictionary* dict, size_t rows) {
  std::vector<rdf::TermId> terms;
  for (int i = 0; i < 64; ++i) {
    terms.push_back(dict->Encode(
        "\"" + std::to_string(i * 25) +
        "\"^^<http://www.w3.org/2001/XMLSchema#integer>"));
  }
  for (int i = 0; i < 8; ++i) {
    terms.push_back(dict->Encode("<http://example.org/e" +
                                 std::to_string(i) + ">"));
  }
  std::vector<rdf::TermId> subjects;
  for (int i = 0; i < 500; ++i) {
    subjects.push_back(dict->Encode("<http://example.org/s" +
                                    std::to_string(i) + ">"));
  }
  SplitMix64 rng(31);
  Table t({"s", "o"});
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    rdf::TermId o = rng.Uniform(100) == 0
                        ? kNullTermId
                        : terms[rng.Uniform(terms.size())];
    t.AppendRow({subjects[rng.Uniform(subjects.size())], o});
  }
  return t;
}

TEST(ParallelFilterTest, SingleColumnComparisonMatchesSerial) {
  // ?o < 500 over integers, IRIs (incomparable -> error -> dropped) and
  // nulls: exercises the memoized single-column path end to end.
  rdf::Dictionary dict;
  Table t = MixedLiteralTable(&dict, 20000);
  ExprPtr e = Expr::Compare(
      CompareOp::kLt, Expr::Var("o"),
      Expr::Const("\"500\"^^<http://www.w3.org/2001/XMLSchema#integer>"));

  ExecContext serial_ctx;
  Table serial = ref::Filter(t, *e, dict, &serial_ctx);
  ExecContext parallel_ctx;
  Table parallel = Filter(t, *e, dict, &parallel_ctx);
  EXPECT_GT(serial.NumRows(), 0u);
  EXPECT_LT(serial.NumRows(), t.NumRows());
  ExpectIdenticalTables(serial, parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

TEST(ParallelFilterTest, MultiColumnExpressionMatchesSerial) {
  // (?s = ?o) || !BOUND(?o) references two columns, so the memo does
  // not apply and the generic per-row path must stay identical too.
  rdf::Dictionary dict;
  Table t = MixedLiteralTable(&dict, 12000);
  ExprPtr e = Expr::Or(
      Expr::Compare(CompareOp::kEq, Expr::Var("s"), Expr::Var("o")),
      Expr::Not(Expr::Bound("o")));

  ExecContext serial_ctx;
  Table serial = ref::Filter(t, *e, dict, &serial_ctx);
  ExecContext parallel_ctx;
  Table parallel = Filter(t, *e, dict, &parallel_ctx);
  ExpectIdenticalTables(serial, parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

TEST(ParallelFilterTest, CancelReportsCancelledLikeSerial) {
  rdf::Dictionary dict;
  Table t = MixedLiteralTable(&dict, 20000);
  ExprPtr e = Expr::Compare(
      CompareOp::kLt, Expr::Var("o"),
      Expr::Const("\"500\"^^<http://www.w3.org/2001/XMLSchema#integer>"));
  std::atomic<bool> cancel{true};

  ExecContext serial_ctx;
  serial_ctx.cancel_flag = &cancel;
  (void)ref::Filter(t, *e, dict, &serial_ctx);
  ExecContext parallel_ctx;
  parallel_ctx.cancel_flag = &cancel;
  (void)Filter(t, *e, dict, &parallel_ctx);
  EXPECT_EQ(serial_ctx.interrupt_status.code(), StatusCode::kCancelled);
  EXPECT_EQ(parallel_ctx.interrupt_status.code(),
            serial_ctx.interrupt_status.code());
}

// --- Hash join ---------------------------------------------------------------

// Random (x, y) |><| (y, z) inputs with some null keys mixed in.
std::pair<Table, Table> JoinInputs(uint64_t seed, size_t left_rows,
                                   size_t right_rows) {
  SplitMix64 rng(seed);
  Table left({"x", "y"});
  Table right({"y", "z"});
  for (size_t i = 0; i < left_rows; ++i) {
    left.AppendRow({static_cast<rdf::TermId>(rng.Uniform(700) + 1),
                    static_cast<rdf::TermId>(rng.Uniform(300) + 1)});
  }
  for (size_t i = 0; i < right_rows; ++i) {
    right.AppendRow({static_cast<rdf::TermId>(rng.Uniform(300) + 1),
                     static_cast<rdf::TermId>(rng.Uniform(700) + 1)});
  }
  left.AppendRow({1, kNullTermId});
  right.AppendRow({kNullTermId, 2});
  return {std::move(left), std::move(right)};
}

TEST(ParallelJoinBuildSideTest, SmallerLeftBuildsLeft) {
  // left < right: the join builds on the left and must sort its packed
  // pairs back into probe order — byte-identical output either way.
  auto [left, right] = JoinInputs(101, 6000, 18000);
  ExecContext serial_ctx;
  Table serial = ref::HashJoin(left, right, &serial_ctx);
  ExecContext parallel_ctx;
  Table parallel = HashJoin(left, right, &parallel_ctx);
  ExpectIdenticalTables(serial, parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

TEST(ParallelJoinBuildSideTest, SmallerRightBuildsRight) {
  auto [left, right] = JoinInputs(103, 18000, 6000);
  ExecContext serial_ctx;
  Table serial = ref::HashJoin(left, right, &serial_ctx);
  ExecContext parallel_ctx;
  Table parallel = HashJoin(left, right, &parallel_ctx);
  ExpectIdenticalTables(serial, parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

class JoinComparisonsTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinComparisonsTest, ParallelChargesSameComparisons) {
  // The kernel must account join_comparisons exactly like the reference
  // — the cost model and EXPLAIN ANALYZE read them (regression: the
  // radix join once charged per partition).
  SplitMix64 rng(static_cast<uint64_t>(GetParam()) * 67 + 11);
  auto [left, right] =
      JoinInputs(rng.Next(), 4500 + rng.Uniform(6000),
                 4500 + rng.Uniform(6000));
  ExecContext serial_ctx;
  (void)ref::HashJoin(left, right, &serial_ctx);
  ExecContext parallel_ctx;
  (void)HashJoin(left, right, &parallel_ctx);
  EXPECT_EQ(serial_ctx.metrics.join_comparisons,
            parallel_ctx.metrics.join_comparisons);
  EXPECT_EQ(serial_ctx.metrics.shuffled_tuples,
            parallel_ctx.metrics.shuffled_tuples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinComparisonsTest, ::testing::Range(0, 4));

TEST(ParallelJoinInterruptTest, CancelReportsCancelledLikeSerial) {
  // An interrupted join must surface the same Status as the reference —
  // kCancelled from the cancel flag, with the partial output abandoned.
  auto [left, right] = JoinInputs(107, 20000, 20000);
  std::atomic<bool> cancel{true};

  ExecContext serial_ctx;
  serial_ctx.cancel_flag = &cancel;
  (void)ref::HashJoin(left, right, &serial_ctx);
  ExecContext parallel_ctx;
  parallel_ctx.cancel_flag = &cancel;
  Table parallel = HashJoin(left, right, &parallel_ctx);
  EXPECT_EQ(serial_ctx.interrupt_status.code(), StatusCode::kCancelled);
  EXPECT_EQ(parallel_ctx.interrupt_status.code(),
            serial_ctx.interrupt_status.code());
  EXPECT_EQ(parallel.NumRows(), 0u);
}

class ParallelJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelJoinTest, MatchesSerialJoin) {
  SplitMix64 rng(static_cast<uint64_t>(GetParam()) * 41 + 5);
  size_t rows = 3000 + rng.Uniform(8000);
  Table left({"x", "y"});
  Table right({"y", "z"});
  for (size_t i = 0; i < rows; ++i) {
    left.AppendRow({static_cast<TermId>(rng.Uniform(500)),
                    static_cast<TermId>(rng.Uniform(200))});
    right.AppendRow({static_cast<TermId>(rng.Uniform(200)),
                     static_cast<TermId>(rng.Uniform(500))});
  }
  // A few null keys that must never match.
  left.AppendRow({1, kNullTermId});
  right.AppendRow({kNullTermId, 2});

  ExecContext serial_ctx;
  serial_ctx.num_partitions = 7;
  Table serial = ref::HashJoin(left, right, &serial_ctx);
  ExecContext parallel_ctx;
  parallel_ctx.num_partitions = 7;
  Table parallel = HashJoin(left, right, &parallel_ctx);
  ExpectIdenticalTables(serial, parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelJoinTest, ::testing::Range(0, 5));

// Runs HashJoin with task profiling on and returns the spans it
// recorded: none means it never partitioned its inputs.
std::vector<TaskSpan> JoinSpans(const Table& left, const Table& right,
                                Table* out) {
  TaskSpanSink sink;
  ExecContext ctx;
  ctx.collect_profile = true;
  ctx.task_spans = &sink;
  *out = HashJoin(left, right, &ctx);
  return sink.Take();
}

TEST(ParallelJoinTest, SmallInputsFallBackToSerial) {
  // Below kParallelRowThreshold the join runs inline on the caller as
  // one partition: no task spans, the reference's output.
  Table left({"x", "y"});
  left.AppendRow({1, 2});
  Table right({"y", "z"});
  right.AppendRow({2, 3});
  Table out;
  EXPECT_TRUE(JoinSpans(left, right, &out).empty());
  ASSERT_EQ(out.NumRows(), 1u);
  EXPECT_EQ(out.At(0, 2), 3u);
  ExecContext ref_ctx;
  ExpectIdenticalTables(ref::HashJoin(left, right, &ref_ctx), out);
}

TEST(ParallelJoinTest, CrossJoinFallsBackToSerial) {
  // No shared columns: the serial cross product runs even above the
  // size threshold.
  Table left({"x"});
  Table right({"z"});
  for (TermId i = 0; i < 5000; ++i) left.AppendRow({i});
  for (TermId i = 0; i < 3; ++i) right.AppendRow({i});
  Table out;
  EXPECT_TRUE(JoinSpans(left, right, &out).empty());
  EXPECT_EQ(out.NumRows(), 15000u);
  ExecContext ref_ctx;
  ExpectIdenticalTables(ref::HashJoin(left, right, &ref_ctx), out);
}

TEST(ParallelJoinTest, CanonicalOrderAndMetricsMatchSerial) {
  // Stronger than SameBag: the gather must reproduce the reference
  // output row for row, and every metric must match exactly.
  SplitMix64 rng(97);
  Table left({"x", "y"});
  Table right({"y", "z"});
  for (size_t i = 0; i < 9000; ++i) {
    left.AppendRow({static_cast<TermId>(rng.Uniform(600) + 1),
                    static_cast<TermId>(rng.Uniform(250) + 1)});
    right.AppendRow({static_cast<TermId>(rng.Uniform(250) + 1),
                     static_cast<TermId>(rng.Uniform(600) + 1)});
  }
  left.AppendRow({1, kNullTermId});
  right.AppendRow({kNullTermId, 2});

  ExecContext serial_ctx;
  Table serial = ref::HashJoin(left, right, &serial_ctx);
  ExecContext parallel_ctx;
  Table parallel = HashJoin(left, right, &parallel_ctx);
  ExpectIdenticalTables(serial, parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

TEST(ParallelJoinTest, InterruptedJoinSkipsGatherAndReturnsEmpty) {
  // ~4M-row join output against a 1 ms deadline: the kernel must bail
  // out mid-join and return an empty table (no gather of partial
  // partitions) with the reason recorded.
  SplitMix64 rng(23);
  Table left({"x", "y"});
  Table right({"y", "z"});
  for (size_t i = 0; i < 40000; ++i) {
    left.AppendRow({static_cast<TermId>(rng.Uniform(1000) + 1),
                    static_cast<TermId>(rng.Uniform(400) + 1)});
    right.AppendRow({static_cast<TermId>(rng.Uniform(400) + 1),
                     static_cast<TermId>(rng.Uniform(1000) + 1)});
  }
  ExecContext ctx;
  ctx.has_deadline = true;
  ctx.deadline = MonotonicNow() + std::chrono::milliseconds(1);
  Table out = HashJoin(left, right, &ctx);
  EXPECT_EQ(out.NumRows(), 0u);
  EXPECT_EQ(ctx.interrupt_status.code(), StatusCode::kDeadlineExceeded);
}

// --- Scan, distinct, order-by, group-by --------------------------------------

TEST(ParallelOperatorsTest, ScanSelectProjectMatchesSerial) {
  SplitMix64 rng(7);
  Table base({"s", "o"});
  for (size_t i = 0; i < 20000; ++i) {
    base.AppendRow({static_cast<TermId>(rng.Uniform(5) + 1),
                    static_cast<TermId>(rng.Uniform(1000) + 1)});
  }
  ScanSpec spec;
  spec.conditions.emplace_back(0, 3);
  spec.projections.emplace_back(1, "o");

  ExecContext serial_ctx;
  Table serial = ref::ScanSelectProject(base, spec, &serial_ctx);
  ExecContext parallel_ctx;
  Table parallel = ScanSelectProject(base, spec, &parallel_ctx);
  ExpectIdenticalTables(serial, parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

TEST(ParallelOperatorsTest, DistinctMatchesSerial) {
  // Low cardinality: heavy duplication, and first-occurrence order must
  // survive the hash-partitioned dedup.
  SplitMix64 rng(9);
  Table t({"a", "b"});
  for (size_t i = 0; i < 20000; ++i) {
    t.AppendRow({static_cast<TermId>(rng.Uniform(40) + 1),
                 static_cast<TermId>(rng.Uniform(40) + 1)});
  }
  ExecContext serial_ctx;
  Table serial = ref::Distinct(t, &serial_ctx);
  ExecContext parallel_ctx;
  Table parallel = Distinct(t, &parallel_ctx);
  ExpectIdenticalTables(serial, parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

TEST(ParallelOperatorsTest, OrderByMatchesSerial) {
  // Many duplicate sort keys: the k-way merge's earliest-range
  // tie-break must reproduce the reference's stable_sort exactly.
  rdf::Dictionary dict;
  std::vector<TermId> terms;
  for (int i = 0; i < 60; ++i) {
    terms.push_back(dict.Encode(
        "\"" + std::to_string(i) +
        "\"^^<http://www.w3.org/2001/XMLSchema#integer>"));
  }
  SplitMix64 rng(11);
  Table t({"n", "m"});
  for (size_t i = 0; i < 20000; ++i) {
    t.AppendRow({terms[rng.Uniform(60)], terms[rng.Uniform(60)]});
  }
  std::vector<SortKey> keys = {{"n", true}, {"m", false}};
  ExecContext serial_ctx;
  Table serial = ref::OrderBy(t, keys, dict, &serial_ctx);
  ExecContext parallel_ctx;
  Table parallel = OrderBy(t, keys, dict, &parallel_ctx);
  ExpectIdenticalTables(serial, parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

TEST(ParallelOperatorsTest, GroupByAggregateMatchesSerial) {
  // Mixed aggregate set including the states that cannot be merged
  // across partitions (FP sums, DISTINCT sets): group-exclusive
  // partitioning must make the output and minted literals identical.
  rdf::Dictionary dict;
  std::vector<TermId> group_keys;
  for (int i = 0; i < 50; ++i) {
    group_keys.push_back(dict.Encode("<K" + std::to_string(i) + ">"));
  }
  std::vector<TermId> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(dict.Encode(
        "\"" + std::to_string(i) + ".25" +
        "\"^^<http://www.w3.org/2001/XMLSchema#double>"));
  }
  SplitMix64 rng(13);
  Table t({"k", "v"});
  for (size_t i = 0; i < 20000; ++i) {
    t.AppendRow({group_keys[rng.Uniform(50)], values[rng.Uniform(200)]});
  }
  std::vector<AggregateSpec> specs = {
      {AggregateSpec::Fn::kCountStar, "", "n", false},
      {AggregateSpec::Fn::kSum, "v", "total", false},
      {AggregateSpec::Fn::kAvg, "v", "avg", false},
      {AggregateSpec::Fn::kCount, "v", "dv", true},
      {AggregateSpec::Fn::kMin, "v", "mn", false},
  };
  ExecContext serial_ctx;
  auto serial = ref::GroupByAggregate(t, {"k"}, specs, &dict, &serial_ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ExecContext parallel_ctx;
  auto parallel = GroupByAggregate(t, {"k"}, specs, &dict, &parallel_ctx);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectIdenticalTables(*serial, *parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

TEST(ParallelDistinctTest, UnboundValuesAndMorselOverrideMatchSerial) {
  // Heavy duplication with nulls mixed into both columns: unbound cells
  // must dedup like any other value, and first-occurrence order must
  // survive ragged morsel boundaries (15001 rows leave a short last
  // morsel at every pool width).
  SplitMix64 rng(17);
  Table t({"a", "b"});
  for (size_t i = 0; i < 15001; ++i) {
    rdf::TermId a = rng.Uniform(8) == 0
                        ? kNullTermId
                        : static_cast<rdf::TermId>(rng.Uniform(30) + 1);
    rdf::TermId b = rng.Uniform(8) == 0
                        ? kNullTermId
                        : static_cast<rdf::TermId>(rng.Uniform(30) + 1);
    t.AppendRow({a, b});
  }
  ExecContext serial_ctx;
  Table serial = ref::Distinct(t, &serial_ctx);
  ExecContext parallel_ctx;
  Table parallel = Distinct(t, &parallel_ctx);
  EXPECT_GT(serial.NumRows(), 0u);
  EXPECT_LT(serial.NumRows(), t.NumRows());
  ExpectIdenticalTables(serial, parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

TEST(ParallelOrderByTest, NullsAndMixedTypesMatchSerial) {
  // Sort keys mixing numeric literals, IRIs and unbound cells under an
  // asc/desc key pair: the k-way merge's earliest-range tie-break must
  // reproduce the reference's stable_sort across every value class.
  rdf::Dictionary dict;
  std::vector<rdf::TermId> terms;
  for (int i = 0; i < 25; ++i) {
    terms.push_back(dict.Encode(
        "\"" + std::to_string(i * 7 % 50) +
        "\"^^<http://www.w3.org/2001/XMLSchema#integer>"));
    terms.push_back(dict.Encode("<I" + std::to_string(i) + ">"));
  }
  terms.push_back(kNullTermId);
  SplitMix64 rng(19);
  Table t({"n", "m"});
  for (size_t i = 0; i < 15001; ++i) {
    t.AppendRow({terms[rng.Uniform(terms.size())],
                 terms[rng.Uniform(terms.size())]});
  }
  std::vector<SortKey> keys = {{"n", true}, {"m", false}};
  ExecContext serial_ctx;
  Table serial = ref::OrderBy(t, keys, dict, &serial_ctx);
  ExecContext parallel_ctx;
  Table parallel = OrderBy(t, keys, dict, &parallel_ctx);
  ExpectIdenticalTables(serial, parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

TEST(ParallelGroupByAggregateTest, UnboundInputsAndDistinctCountsMatchSerial) {
  // Unbound aggregate inputs (skipped by COUNT/SUM/MIN), an unbound
  // group key (its own group), and a DISTINCT count whose state cannot
  // be merged across partitions: group-exclusive partitioning must
  // still be byte-identical, minted literals included.
  rdf::Dictionary dict;
  std::vector<rdf::TermId> group_keys;
  for (int i = 0; i < 30; ++i) {
    group_keys.push_back(dict.Encode("<G" + std::to_string(i) + ">"));
  }
  group_keys.push_back(kNullTermId);
  std::vector<rdf::TermId> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(dict.Encode(
        "\"" + std::to_string(i) + ".5" +
        "\"^^<http://www.w3.org/2001/XMLSchema#double>"));
  }
  values.push_back(kNullTermId);
  SplitMix64 rng(23);
  Table t({"k", "v"});
  for (size_t i = 0; i < 15000; ++i) {
    t.AppendRow({group_keys[rng.Uniform(group_keys.size())],
                 values[rng.Uniform(values.size())]});
  }
  std::vector<AggregateSpec> specs = {
      {AggregateSpec::Fn::kCountStar, "", "n", false},
      {AggregateSpec::Fn::kCount, "v", "dv", true},
      {AggregateSpec::Fn::kSum, "v", "total", false},
      {AggregateSpec::Fn::kMax, "v", "mx", false},
  };
  ExecContext serial_ctx;
  auto serial = ref::GroupByAggregate(t, {"k"}, specs, &dict, &serial_ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ExecContext parallel_ctx;
  auto parallel = GroupByAggregate(t, {"k"}, specs, &dict, &parallel_ctx);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectIdenticalTables(*serial, *parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

// --- Every kernel at every size, healthy, cancelled and expired --------------
//
// Sizes straddle kParallelRowThreshold (inline below, fanned out from it
// on a wide pool) and leave ragged last morsels; every input mixes in
// unbound cells. A cancelled or expired context must leave the kernel
// with the reference's (empty) table, metrics and Status.

enum class Interrupt { kNone, kCancelled, kExpired };

struct Outcome {
  Table table;
  ExecMetrics metrics;
  StatusCode code = StatusCode::kOk;
};

template <typename Op>
Outcome RunWith(Interrupt interrupt, Op&& op) {
  std::atomic<bool> cancel{true};
  ExecContext ctx;
  if (interrupt == Interrupt::kCancelled) ctx.cancel_flag = &cancel;
  if (interrupt == Interrupt::kExpired) {
    ctx.has_deadline = true;
    ctx.deadline = MonotonicNow() - std::chrono::milliseconds(1);
  }
  Outcome out;
  out.table = op(&ctx);
  out.metrics = ctx.metrics;
  out.code = ctx.interrupt_status.code();
  return out;
}

class KernelParityTest
    : public ::testing::TestWithParam<std::tuple<size_t, Interrupt>> {
 protected:
  void SetUp() override {
    for (int i = 0; i < 40; ++i) {
      terms_.push_back(dict_.Encode(
          "\"" + std::to_string(i * 13 % 29) +
          "\"^^<http://www.w3.org/2001/XMLSchema#integer>"));
      terms_.push_back(dict_.Encode("<T" + std::to_string(i % 23) + ">"));
    }
    terms_.push_back(kNullTermId);
  }

  // (a, b, c) rows drawn from terms_, deterministic per (rows, seed).
  Table Input(size_t rows, uint64_t seed) const {
    SplitMix64 rng(seed * 1000003 + rows);
    Table t({"a", "b", "c"});
    for (size_t i = 0; i < rows; ++i) {
      t.AppendRow({terms_[rng.Uniform(terms_.size())],
                   terms_[rng.Uniform(terms_.size())],
                   terms_[rng.Uniform(12)]});
    }
    return t;
  }

  // Runs kernel and reference under the test's interrupt mode and
  // expects identical table, metrics and interrupt status.
  template <typename Kernel, typename Reference>
  void ExpectParity(const char* what, Kernel&& kernel, Reference&& reference) {
    SCOPED_TRACE(what);
    const Interrupt interrupt = std::get<1>(GetParam());
    Outcome expected = RunWith(interrupt, reference);
    Outcome actual = RunWith(interrupt, kernel);
    ExpectIdenticalTables(expected.table, actual.table);
    ExpectIdenticalMetrics(expected.metrics, actual.metrics);
    EXPECT_EQ(expected.code, actual.code);
  }

  rdf::Dictionary dict_;
  std::vector<TermId> terms_;
};

TEST_P(KernelParityTest, ScanMatchesReference) {
  const size_t rows = std::get<0>(GetParam());
  Table base = Input(rows, 1);
  ScanSpec spec;
  spec.conditions.emplace_back(2, terms_[3]);
  spec.not_null_columns.push_back(0);
  spec.projections.emplace_back(0, "x");
  spec.projections.emplace_back(1, "y");
  ExpectParity(
      "scan",
      [&](ExecContext* ctx) { return ScanSelectProject(base, spec, ctx); },
      [&](ExecContext* ctx) {
        return ref::ScanSelectProject(base, spec, ctx);
      });

  ScanSpec bound;  // A fully bound pattern: rows, but no columns.
  bound.conditions.emplace_back(2, terms_[5]);
  ExpectParity(
      "scan without projections",
      [&](ExecContext* ctx) { return ScanSelectProject(base, bound, ctx); },
      [&](ExecContext* ctx) {
        return ref::ScanSelectProject(base, bound, ctx);
      });

  ScanSpec equal;
  equal.equal_columns.emplace_back(0, 1);
  equal.projections.emplace_back(2, "z");
  Bitmap keep(rows);
  for (size_t r = 0; r < rows; r += 3) keep.Set(r);
  equal.row_filter = &keep;
  ExpectParity(
      "scan with equal columns and a row-filter bitmap",
      [&](ExecContext* ctx) { return ScanSelectProject(base, equal, ctx); },
      [&](ExecContext* ctx) {
        return ref::ScanSelectProject(base, equal, ctx);
      });
}

TEST_P(KernelParityTest, FilterMatchesReference) {
  const size_t rows = std::get<0>(GetParam());
  Table t = Input(rows, 2);
  ExprPtr single = Expr::Compare(
      CompareOp::kLt, Expr::Var("a"),
      Expr::Const("\"15\"^^<http://www.w3.org/2001/XMLSchema#integer>"));
  ExpectParity(
      "memoized single-column filter",
      [&](ExecContext* ctx) { return Filter(t, *single, dict_, ctx); },
      [&](ExecContext* ctx) { return ref::Filter(t, *single, dict_, ctx); });
  ExprPtr multi = Expr::Or(
      Expr::Compare(CompareOp::kEq, Expr::Var("a"), Expr::Var("b")),
      Expr::Not(Expr::Bound("c")));
  ExpectParity(
      "multi-column filter",
      [&](ExecContext* ctx) { return Filter(t, *multi, dict_, ctx); },
      [&](ExecContext* ctx) { return ref::Filter(t, *multi, dict_, ctx); });
}

TEST_P(KernelParityTest, HashJoinMatchesReference) {
  const size_t rows = std::get<0>(GetParam());
  Table left = Input(rows, 3);
  Table right = Input(rows / 2 + 3, 4).WithColumnNames({"c", "d", "e"});
  ExpectParity(
      "join on one shared column",
      [&](ExecContext* ctx) { return HashJoin(left, right, ctx); },
      [&](ExecContext* ctx) { return ref::HashJoin(left, right, ctx); });
  Table right2 = Input(rows / 3 + 1, 5).WithColumnNames({"a", "d", "c"});
  ExpectParity(
      "join on two shared columns",
      [&](ExecContext* ctx) { return HashJoin(left, right2, ctx); },
      [&](ExecContext* ctx) { return ref::HashJoin(left, right2, ctx); });
  Table tiny = Input(3, 6).WithColumnNames({"d", "e", "f"});
  ExpectParity(
      "cross join",
      [&](ExecContext* ctx) { return HashJoin(left, tiny, ctx); },
      [&](ExecContext* ctx) { return ref::HashJoin(left, tiny, ctx); });
}

TEST_P(KernelParityTest, DistinctMatchesReference) {
  const size_t rows = std::get<0>(GetParam());
  Table t = Project(Input(rows, 7), {"c", "b"});
  ExpectParity(
      "distinct", [&](ExecContext* ctx) { return Distinct(t, ctx); },
      [&](ExecContext* ctx) { return ref::Distinct(t, ctx); });
}

TEST_P(KernelParityTest, OrderByMatchesReference) {
  const size_t rows = std::get<0>(GetParam());
  Table t = Input(rows, 8);
  std::vector<SortKey> keys = {{"c", false}, {"a", true}, {"nope", true}};
  ExpectParity(
      "order by",
      [&](ExecContext* ctx) { return OrderBy(t, keys, dict_, ctx); },
      [&](ExecContext* ctx) { return ref::OrderBy(t, keys, dict_, ctx); });
}

TEST_P(KernelParityTest, GroupByMatchesReference) {
  const size_t rows = std::get<0>(GetParam());
  Table t = Input(rows, 9);
  std::vector<AggregateSpec> specs = {
      {AggregateSpec::Fn::kCountStar, "", "n", false},
      {AggregateSpec::Fn::kCount, "b", "db", true},
      {AggregateSpec::Fn::kSum, "a", "total", false},
      {AggregateSpec::Fn::kMin, "a", "mn", false},
      {AggregateSpec::Fn::kSample, "b", "any", false},
  };
  auto unwrap = [](StatusOr<Table> result) {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : Table();
  };
  for (std::vector<std::string> keys :
       {std::vector<std::string>{"c"}, std::vector<std::string>{"c", "b"},
        std::vector<std::string>{}}) {
    ExpectParity(
        keys.empty() ? "implicit group" : "grouped",
        [&](ExecContext* ctx) {
          return unwrap(GroupByAggregate(t, keys, specs, &dict_, ctx));
        },
        [&](ExecContext* ctx) {
          return unwrap(ref::GroupByAggregate(t, keys, specs, &dict_, ctx));
        });
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndInterrupts, KernelParityTest,
    ::testing::Combine(::testing::Values(0, 1, 7, kParallelRowThreshold - 1,
                                         kParallelRowThreshold, 15001),
                       ::testing::Values(Interrupt::kNone,
                                         Interrupt::kCancelled,
                                         Interrupt::kExpired)),
    [](const auto& info) {
      const Interrupt interrupt = std::get<1>(info.param);
      return "rows" + std::to_string(std::get<0>(info.param)) +
             (interrupt == Interrupt::kNone        ? ""
              : interrupt == Interrupt::kCancelled ? "_cancelled"
                                                   : "_expired");
    });

// --- Plan execution ----------------------------------------------------------

// Two joinable 6000-row tables of dictionary-encoded IRIs, big enough
// that every operator fans out on a wide pool.
struct ParallelPlanFixture {
  ParallelPlanFixture() : follows({"s", "o"}), likes({"s", "o"}) {
    std::vector<TermId> ids;
    for (int i = 0; i < 600; ++i) {
      ids.push_back(dict.Encode("<P" + std::to_string(i) + ">"));
    }
    SplitMix64 rng(31);
    for (size_t i = 0; i < 6000; ++i) {
      follows.AppendRow({ids[rng.Uniform(600)], ids[rng.Uniform(600)]});
      likes.AppendRow({ids[rng.Uniform(600)], ids[rng.Uniform(600)]});
    }
  }

  TableProvider Provider() {
    return [this](const std::string& name,
                  const std::string&) -> const Table* {
      if (name == "follows") return &follows;
      if (name == "likes") return &likes;
      return nullptr;
    };
  }

  rdf::Dictionary dict;
  Table follows;
  Table likes;
};

// ?x follows ?y . ?y likes ?z, deduplicated and sorted.
PlanPtr JoinDistinctOrderPlan() {
  PlanPtr plan = PlanNode::Join(
      PlanNode::Scan("follows", {}, {{"s", "x"}, {"o", "y"}}),
      PlanNode::Scan("likes", {}, {{"s", "y"}, {"o", "z"}}));
  plan = PlanNode::DistinctNode(std::move(plan));
  return PlanNode::OrderByNode(std::move(plan), {{"x", true}, {"z", false}});
}

ScanSpec ProjectAll(std::vector<std::string> names) {
  ScanSpec spec;
  for (size_t c = 0; c < names.size(); ++c) {
    spec.projections.emplace_back(static_cast<int>(c), std::move(names[c]));
  }
  return spec;
}

TEST(PlanTest, ParallelExecutionMatchesSerialExactly) {
  // ExecutePlan over the kernels against the same plan composed by hand
  // from the reference operators.
  ParallelPlanFixture f;
  ExecContext serial_ctx;
  Table serial = ref::OrderBy(
      ref::Distinct(
          ref::HashJoin(
              ref::ScanSelectProject(f.follows, ProjectAll({"x", "y"}),
                                     &serial_ctx),
              ref::ScanSelectProject(f.likes, ProjectAll({"y", "z"}),
                                     &serial_ctx),
              &serial_ctx),
          &serial_ctx),
      {{"x", true}, {"z", false}}, f.dict, &serial_ctx);
  ASSERT_GT(serial.NumRows(), 0u);

  ExecContext parallel_ctx;
  auto parallel = ExecutePlan(*JoinDistinctOrderPlan(), f.Provider(), &f.dict,
                              &parallel_ctx);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectIdenticalTables(serial, *parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

TEST(PlanTest, ParallelAggregatePlanMatchesSerial) {
  ParallelPlanFixture f;
  std::vector<AggregateSpec> specs = {
      {AggregateSpec::Fn::kCountStar, "", "n", false},
      {AggregateSpec::Fn::kCount, "v", "dv", true}};
  PlanPtr plan = PlanNode::AggregateNode(
      PlanNode::Scan("follows", {}, {{"s", "k"}, {"o", "v"}}), {"k"}, specs);
  ExecContext serial_ctx;
  auto serial = ref::GroupByAggregate(
      ref::ScanSelectProject(f.follows, ProjectAll({"k", "v"}), &serial_ctx),
      {"k"}, specs, &f.dict, &serial_ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  ExecContext parallel_ctx;
  auto parallel = ExecutePlan(*plan, f.Provider(), &f.dict, &parallel_ctx);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectIdenticalTables(*serial, *parallel);
  ExpectIdenticalMetrics(serial_ctx.metrics, parallel_ctx.metrics);
}

TEST(PlanTest, ParallelPlanReportsExpiredDeadline) {
  // ExecutePlan must surface the interrupt as a status, not as a
  // partial table, when the kernels bail out.
  ParallelPlanFixture f;
  ExecContext ctx;
  ctx.has_deadline = true;
  ctx.deadline = MonotonicNow() - std::chrono::milliseconds(1);
  auto result = ExecutePlan(*JoinDistinctOrderPlan(), f.Provider(), &f.dict,
                            &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// --- Morsel auto-tune --------------------------------------------------------

TEST(MorselAutoTuneTest, StaysWithinBounds) {
  // Any width/row combination lands inside [kMinMorselRows,
  // kMaxMorselRows]; wider tables get morsels no larger than narrow
  // ones (the target is bytes per morsel, not rows).
  for (size_t width : {1u, 4u, 16u}) {
    for (size_t cols : {1u, 2u, 4u, 16u, 64u}) {
      for (size_t rows : {5000u, 100000u, 10000000u}) {
        size_t m = MorselRowsFor(rows, cols, width);
        EXPECT_GE(m, kMinMorselRows) << cols << "x" << rows << "@" << width;
        EXPECT_LE(m, kMaxMorselRows) << cols << "x" << rows << "@" << width;
      }
    }
    EXPECT_GE(MorselRowsFor(10000000, 1, width),
              MorselRowsFor(10000000, 64, width));
  }
}

TEST(MorselAutoTuneTest, SmallInputsRunAsOneInlineMorsel) {
  // Below the threshold an operator never touches the pool: one morsel,
  // one partition, whatever the pool's width.
  for (size_t rows : {size_t{0}, size_t{1}, kParallelRowThreshold - 1}) {
    FanOut fan(rows, 3);
    EXPECT_FALSE(fan.partitioned);
    EXPECT_EQ(fan.width, 1u);
    EXPECT_EQ(fan.morsels, 1u);
    EXPECT_EQ(fan.End(0), rows);
  }
  FanOut big(100000, 2);
  EXPECT_TRUE(big.partitioned);
  EXPECT_EQ(big.width, TaskPool::Shared()->ParallelismWidth());
  EXPECT_EQ(big.End(big.morsels - 1), 100000u);
  if (big.width == 1) {
    EXPECT_EQ(big.morsels, 1u);
  }
}

// --- Speedup floor -----------------------------------------------------------

double FloorFromEnv() {
  if (const char* env = std::getenv("S2RDF_BENCH_SPEEDUP_FLOOR")) {
    char* end = nullptr;
    double v = std::strtod(env, &end);
    if (end != env && v > 0.0) return v;
  }
  return 1.5;
}

// Best-of-N wall time of `fn` in milliseconds.
template <typename Fn>
double BestMs(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    MonotonicTime t0 = MonotonicNow();
    fn();
    double ms = std::chrono::duration<double, std::milli>(
                    MonotonicNow() - t0)
                    .count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

TEST(ParallelSpeedupTest, ScanAndJoinMeetFloorOnMultiCoreHosts) {
  // The regression gate for the parallel-slower-than-serial bug: on a
  // real multi-core host the scan and join kernels must beat their
  // row-at-a-time references by the same floor BENCH_parallel.json
  // records. Skipped — visibly, never silently passed — below 4
  // hardware cores or on a narrower pool, where the contract is only
  // byte-identity, not speed.
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4) {
    GTEST_SKIP() << "needs >= 4 hardware cores, have " << cores;
  }
  const size_t width = TaskPool::Shared()->ParallelismWidth();
  if (width < 4) {
    GTEST_SKIP() << "needs a task pool of width >= 4, have " << width;
  }
  const double floor = FloorFromEnv();
  const int reps = 3;

  {
    SplitMix64 rng(7);
    Table base({"s", "o"});
    base.Reserve(2000000);
    for (size_t i = 0; i < 2000000; ++i) {
      base.AppendRow({static_cast<rdf::TermId>(rng.Uniform(5) + 1),
                      static_cast<rdf::TermId>(rng.Uniform(100000) + 1)});
    }
    ScanSpec spec;
    spec.conditions.emplace_back(0, 3);
    spec.projections.emplace_back(1, "o");
    double serial = BestMs(reps, [&] {
      ExecContext ctx;
      (void)ref::ScanSelectProject(base, spec, &ctx);
    });
    double parallel = BestMs(reps, [&] {
      ExecContext ctx;
      (void)ScanSelectProject(base, spec, &ctx);
    });
    EXPECT_GE(serial / parallel, floor)
        << "scan: reference " << serial << " ms, kernel " << parallel
        << " ms";
  }

  {
    // 50 K x 50 K rows over 300 join keys emit ~8.3 M rows: enough work
    // to show the floor, small enough for the row-at-a-time reference to
    // finish well inside ctest's timeout under ThreadSanitizer.
    auto [left, right] = JoinInputs(13, 50000, 50000);
    double serial = BestMs(reps, [&] {
      ExecContext ctx;
      (void)ref::HashJoin(left, right, &ctx);
    });
    double parallel = BestMs(reps, [&] {
      ExecContext ctx;
      (void)HashJoin(left, right, &ctx);
    });
    EXPECT_GE(serial / parallel, floor)
        << "join: reference " << serial << " ms, kernel " << parallel
        << " ms";
  }
}

}  // namespace
}  // namespace s2rdf::engine
