// Row-at-a-time reference vs morsel-kernel execution: wall-clock and
// metered work for the operators that run on the shared TaskPool (scan,
// filter, hash join, distinct, order-by, group-by). The "serial" column
// is the tests-only reference operator (tests/reference_ops.h), the
// "parallel" column the engine's one kernel at the pool's width; run it
// at S2RDF_TASK_POOL_THREADS=1 and =4 to separate algorithm wins from
// core-count wins.
//
// The reproduction claim (DESIGN.md §8): parallelism changes wall-clock
// only — every kernel must report the same ExecMetrics and the same
// output as its reference — and the data-parallel kernels (scan,
// filter, hash join) beat their references on the big WatDiv inputs.
// The scan, filter and join inputs are derived from a WatDiv graph
// (S2RDF_BENCH_OP_SF scale units, default 4.0 ~ 300 K triples) so the
// gated speedups are measured on the paper's workload shape, not on
// synthetic uniform data.
//
// Output: a human-readable table on stderr and machine-readable JSON on
// stdout (scripts/bench_json.sh captures it as BENCH_parallel.json).
//
// Exit codes (scripts/check.sh depends on these):
//   0  all gates passed
//   1  identity failure: a kernel's output or metrics diverged from its
//      reference (a correctness bug, not a slow result)
//   2  the shared TaskPool reports parallelism 1: the run measured
//      nothing parallel (set S2RDF_TASK_POOL_THREADS to pin a real width)
//   3  a gated entry (scan/filter/join) missed the speedup floor
//      (S2RDF_BENCH_SPEEDUP_FLOOR, default 1.5; enforced only when the
//      pool width is >= 4)

#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "engine/aggregate.h"
#include "engine/expression.h"
#include "engine/operators.h"
#include "rdf/dictionary.h"
#include "rdf/table.h"
#include "tests/reference_ops.h"
#include "watdiv/generator.h"

namespace s2rdf::bench {
namespace {

using engine::ExecContext;
using engine::ExecMetrics;
using rdf::Table;
using rdf::TermId;

constexpr char kFriendOf[] = "<http://db.uwaterloo.ca/~galuc/wsdbm/friendOf>";
constexpr char kFollows[] = "<http://db.uwaterloo.ca/~galuc/wsdbm/follows>";

struct Entry {
  std::string name;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool metrics_identical = false;
  bool output_identical = false;
  // Gated entries must meet the speedup floor (scan/filter/join — the
  // operators the paper's parallel-execution claim is about).
  bool gated = false;

  double Speedup() const {
    return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  }
};

bool SameMetrics(const ExecMetrics& a, const ExecMetrics& b) {
  return a.input_tuples == b.input_tuples &&
         a.intermediate_tuples == b.intermediate_tuples &&
         a.join_comparisons == b.join_comparisons &&
         a.shuffled_tuples == b.shuffled_tuples &&
         a.output_tuples == b.output_tuples;
}

bool SameTable(const Table& a, const Table& b) {
  if (a.column_names() != b.column_names() || a.NumRows() != b.NumRows()) {
    return false;
  }
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    if (a.Column(c) != b.Column(c)) return false;
  }
  return true;
}

// Times one reference/kernel operator pair. Each variant runs `reps`
// times; the last run's output and metrics feed the identity checks.
Entry MeasureOperator(const std::string& name, int reps, bool gated,
                      const std::function<Table(ExecContext*)>& serial,
                      const std::function<Table(ExecContext*)>& parallel) {
  Entry entry;
  entry.name = name;
  entry.gated = gated;
  ExecMetrics serial_metrics;
  Table serial_out;
  entry.serial_ms = MeanMs(reps, [&] {
    ExecContext ctx;
    serial_out = serial(&ctx);
    serial_metrics = ctx.metrics;
  });
  ExecMetrics parallel_metrics;
  Table parallel_out;
  entry.parallel_ms = MeanMs(reps, [&] {
    ExecContext ctx;
    parallel_out = parallel(&ctx);
    parallel_metrics = ctx.metrics;
  });
  entry.metrics_identical = SameMetrics(serial_metrics, parallel_metrics);
  entry.output_identical = SameTable(serial_out, parallel_out);
  return entry;
}

Table RandomPairs(uint64_t seed, size_t rows, uint64_t card0, uint64_t card1,
                  const char* c0, const char* c1) {
  SplitMix64 rng(seed);
  Table t({c0, c1});
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({static_cast<TermId>(rng.Uniform(card0) + 1),
                 static_cast<TermId>(rng.Uniform(card1) + 1)});
  }
  return t;
}

// The gated operator inputs, carved out of one WatDiv graph: the full
// dictionary-encoded triple table (scan + filter input) and the two
// giant social predicates as VP-style (s, o) tables (join input).
struct WatDivInputs {
  rdf::Graph graph;  // Owns the dictionary the filter expression needs.
  Table triples;     // (s, p, o), every triple.
  Table friend_of;   // (x, y): wsdbm:friendOf pairs.
  Table follows;     // (y, z): wsdbm:follows pairs.
  TermId friend_of_id = 0;
};

WatDivInputs BuildWatDivInputs() {
  watdiv::GeneratorOptions gen;
  gen.scale_factor = EnvDouble("S2RDF_BENCH_OP_SF", 4.0);
  WatDivInputs in;
  in.graph = watdiv::Generate(gen);
  const rdf::Dictionary& dict = in.graph.dictionary();
  in.friend_of_id = dict.Find(kFriendOf).value_or(0);
  const TermId follows_id = dict.Find(kFollows).value_or(0);

  in.triples = Table({"s", "p", "o"});
  in.triples.Reserve(in.graph.NumTriples());
  in.friend_of = Table({"x", "y"});
  in.follows = Table({"y", "z"});
  for (const rdf::Triple& t : in.graph.triples()) {
    in.triples.AppendRow({t.subject, t.predicate, t.object});
    if (t.predicate == in.friend_of_id) {
      in.friend_of.AppendRow({t.subject, t.object});
    } else if (t.predicate == follows_id) {
      in.follows.AppendRow({t.subject, t.object});
    }
  }
  return in;
}

// Stage split (parse / compile / execute) of full end-to-end queries on
// the default engine, averaged over `reps` rounds. `mode` names the pool
// width the kernels ran at.
struct StageEntry {
  std::string name;
  std::string mode;  // "width<N>"
  double parse_ms = 0.0;
  double compile_ms = 0.0;
  double exec_ms = 0.0;
  double total_ms = 0.0;
  bool output_identical = true;  // Every round returned the same rows.
};

std::vector<StageEntry> MeasureQueryStages(int reps, size_t width) {
  watdiv::GeneratorOptions gen;
  gen.scale_factor = EnvDouble("S2RDF_BENCH_SF", 1.0);
  auto db = core::S2Rdf::Create(watdiv::Generate(gen), core::S2RdfOptions());
  std::vector<StageEntry> out;
  if (!db.ok()) return out;

  for (const char* name : {"L2", "S3", "F3", "C3"}) {
    const watdiv::QueryTemplate* tmpl = watdiv::FindQuery(name);
    if (tmpl == nullptr) continue;
    core::QueryRequest request;
    request.query = InstantiateFor(*tmpl, gen.scale_factor, 0);
    StageEntry e;
    e.name = name;
    e.mode = "width" + std::to_string(width);
    bool ok = true;
    uint64_t first_rows = 0;
    for (int r = 0; r < reps; ++r) {
      auto result = (*db)->Execute(request);
      if (!result.ok()) {
        ok = false;
        break;
      }
      e.parse_ms += result->parse_ms / reps;
      e.compile_ms += result->compile_ms / reps;
      e.exec_ms += result->exec_ms / reps;
      e.total_ms += result->millis / reps;
      if (r == 0) first_rows = result->metrics.output_tuples;
      e.output_identical &= result->metrics.output_tuples == first_rows;
    }
    if (ok) out.push_back(std::move(e));
  }
  return out;
}

int Run() {
  const int reps = EnvInt("S2RDF_BENCH_ROUNDS", 3);
  const size_t width = TaskPool::Shared()->ParallelismWidth();
  const double floor = EnvDouble("S2RDF_BENCH_SPEEDUP_FLOOR", 1.5);
  const bool enforce_floor = width >= 4;
  std::vector<Entry> entries;

  WatDivInputs watdiv_in = BuildWatDivInputs();
  std::fprintf(stderr,
               "WatDiv operator inputs: %zu triples, friendOf %zu, "
               "follows %zu\n",
               watdiv_in.triples.NumRows(), watdiv_in.friend_of.NumRows(),
               watdiv_in.follows.NumRows());

  {
    engine::ScanSpec spec;
    spec.conditions.emplace_back(1, watdiv_in.friend_of_id);
    spec.projections.emplace_back(0, "s");
    spec.projections.emplace_back(2, "o");
    entries.push_back(MeasureOperator(
        "scan_select_project", reps, /*gated=*/true,
        [&](ExecContext* ctx) {
          return reference::ScanSelectProject(watdiv_in.triples, spec, ctx);
        },
        [&](ExecContext* ctx) {
          return engine::ScanSelectProject(watdiv_in.triples, spec, ctx);
        }));
  }

  {
    sparql::ExprPtr expr = sparql::Expr::Compare(sparql::CompareOp::kEq,
                                                 sparql::Expr::Var("p"),
                                                 sparql::Expr::Const(kFriendOf));
    const rdf::Dictionary& dict = watdiv_in.graph.dictionary();
    entries.push_back(MeasureOperator(
        "filter", reps, /*gated=*/true,
        [&](ExecContext* ctx) {
          return reference::Filter(watdiv_in.triples, *expr, dict, ctx);
        },
        [&](ExecContext* ctx) {
          return engine::Filter(watdiv_in.triples, *expr, dict, ctx);
        }));
  }

  {
    entries.push_back(MeasureOperator(
        "hash_join", reps, /*gated=*/true,
        [&](ExecContext* ctx) {
          return reference::HashJoin(watdiv_in.friend_of, watdiv_in.follows,
                                     ctx);
        },
        [&](ExecContext* ctx) {
          return engine::HashJoin(watdiv_in.friend_of, watdiv_in.follows, ctx);
        }));
  }

  {
    Table t = RandomPairs(17, 500000, 200, 200, "a", "b");
    entries.push_back(MeasureOperator(
        "distinct", reps, /*gated=*/false,
        [&](ExecContext* ctx) { return reference::Distinct(t, ctx); },
        [&](ExecContext* ctx) { return engine::Distinct(t, ctx); }));
  }

  {
    rdf::Dictionary dict;
    std::vector<TermId> terms;
    for (int i = 0; i < 512; ++i) {
      terms.push_back(dict.Encode(
          "\"" + std::to_string(i) +
          "\"^^<http://www.w3.org/2001/XMLSchema#integer>"));
    }
    SplitMix64 rng(19);
    Table t({"n", "m"});
    t.Reserve(300000);
    for (size_t i = 0; i < 300000; ++i) {
      t.AppendRow({terms[rng.Uniform(terms.size())],
                   terms[rng.Uniform(terms.size())]});
    }
    std::vector<sparql::SortKey> keys = {{"n", true}, {"m", false}};
    entries.push_back(MeasureOperator(
        "order_by", reps, /*gated=*/false,
        [&](ExecContext* ctx) {
          return reference::OrderBy(t, keys, dict, ctx);
        },
        [&](ExecContext* ctx) { return engine::OrderBy(t, keys, dict, ctx); }));
  }

  {
    rdf::Dictionary dict;
    std::vector<TermId> values;
    for (int i = 0; i < 1000; ++i) {
      values.push_back(dict.Encode(
          "\"" + std::to_string(i) +
          "\"^^<http://www.w3.org/2001/XMLSchema#integer>"));
    }
    SplitMix64 rng(23);
    Table t({"k", "v"});
    t.Reserve(500000);
    for (size_t i = 0; i < 500000; ++i) {
      t.AppendRow({static_cast<TermId>(rng.Uniform(100) + 1),
                   values[rng.Uniform(values.size())]});
    }
    std::vector<std::string> keys = {"k"};
    std::vector<sparql::AggregateSpec> specs = {
        {sparql::AggregateSpec::Fn::kCountStar, "", "n", false},
        {sparql::AggregateSpec::Fn::kSum, "v", "total", false},
        {sparql::AggregateSpec::Fn::kCount, "v", "dv", true},
    };
    entries.push_back(MeasureOperator(
        "group_by_aggregate", reps, /*gated=*/false,
        [&](ExecContext* ctx) {
          auto result =
              reference::GroupByAggregate(t, keys, specs, &dict, ctx);
          return result.ok() ? std::move(*result) : Table();
        },
        [&](ExecContext* ctx) {
          auto result = engine::GroupByAggregate(t, keys, specs, &dict, ctx);
          return result.ok() ? std::move(*result) : Table();
        }));
  }

  std::vector<StageEntry> stages = MeasureQueryStages(reps, width);

  TablePrinter printer(
      {"benchmark", "serial", "parallel", "speedup", "identical"});
  for (const Entry& e : entries) {
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx%s", e.Speedup(),
                  e.gated ? " *" : "");
    printer.AddRow({e.name, FormatMs(e.serial_ms), FormatMs(e.parallel_ms),
                    speedup,
                    e.metrics_identical && e.output_identical ? "yes" : "NO"});
  }
  std::fprintf(stderr,
               "Reference (serial) vs morsel kernel (parallel) at task "
               "pool width %zu, hardware concurrency %u; * = gated at "
               "%.2fx%s:\n",
               width, std::thread::hardware_concurrency(), floor,
               enforce_floor ? "" : ", not enforced below width 4");
  printer.Print(stderr);

  TablePrinter stage_printer(
      {"query", "mode", "parse", "compile", "exec", "total"});
  for (const StageEntry& e : stages) {
    stage_printer.AddRow({e.name, e.mode, FormatMs(e.parse_ms),
                          FormatMs(e.compile_ms), FormatMs(e.exec_ms),
                          FormatMs(e.total_ms)});
  }
  std::fprintf(stderr, "\nEnd-to-end query stage split:\n");
  stage_printer.Print(stderr);

  // Machine-readable twin on stdout.
  std::printf("{\n");
  std::printf("  \"task_pool_parallelism\": %zu,\n", width);
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"rounds\": %d,\n", reps);
  std::printf("  \"speedup_floor\": %.2f,\n", floor);
  std::printf("  \"floor_enforced\": %s,\n", enforce_floor ? "true" : "false");
  std::printf("  \"entries\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::printf("    {\"name\": \"%s\", \"serial_ms\": %.3f, "
                "\"parallel_ms\": %.3f, \"speedup\": %.3f, \"gated\": %s, "
                "\"metrics_identical\": %s, \"output_identical\": %s}%s\n",
                e.name.c_str(), e.serial_ms, e.parallel_ms, e.Speedup(),
                e.gated ? "true" : "false",
                e.metrics_identical ? "true" : "false",
                e.output_identical ? "true" : "false",
                i + 1 < entries.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"query_stages\": [\n");
  for (size_t i = 0; i < stages.size(); ++i) {
    const StageEntry& e = stages[i];
    std::printf("    {\"name\": \"%s\", \"mode\": \"%s\", "
                "\"parse_ms\": %.3f, \"compile_ms\": %.3f, "
                "\"exec_ms\": %.3f, \"total_ms\": %.3f, "
                "\"output_identical\": %s}%s\n",
                e.name.c_str(), e.mode.c_str(), e.parse_ms, e.compile_ms,
                e.exec_ms, e.total_ms, e.output_identical ? "true" : "false",
                i + 1 < stages.size() ? "," : "");
  }
  std::printf("  ]\n}\n");

  // Identity failures are bugs, not slow results: fail the harness.
  for (const Entry& e : entries) {
    if (!e.metrics_identical || !e.output_identical) return 1;
  }
  for (const StageEntry& e : stages) {
    if (!e.output_identical) return 1;
  }

  // A width-1 run measured no parallelism: every kernel ran inline as
  // one morsel and one partition, so the speedups are algorithm wins
  // only and say nothing about the paper's parallel-execution claim.
  // Fail loudly instead of producing a plausible-looking JSON.
  if (width <= 1) {
    std::fprintf(stderr,
                 "\nerror: task pool parallelism is 1 — this run measured "
                 "no parallelism.\nSet S2RDF_TASK_POOL_THREADS=<width> (or "
                 "run on a multi-core host) and rerun.\n");
    return 2;
  }

  if (enforce_floor) {
    bool missed = false;
    for (const Entry& e : entries) {
      if (e.gated && e.Speedup() < floor) {
        std::fprintf(stderr,
                     "\nerror: %s speedup %.2fx is below the %.2fx floor\n",
                     e.name.c_str(), e.Speedup(), floor);
        missed = true;
      }
    }
    if (missed) return 3;
  }
  return 0;
}

}  // namespace
}  // namespace s2rdf::bench

int main() { return s2rdf::bench::Run(); }
