// Paper heuristic vs cost-based optimizer, end to end over WatDiv.
//
// Two suites:
//
//   basic       Basic Testing (L/S/F/C) on the ExtVP layout — the
//               workload the paper's Algorithm 4 was designed for. The
//               cost-based optimizer must never regress the suite total
//               by more than 5%.
//   il-unbound  The Incremental Linear IL-3 chains (unbound subject,
//               Appendix C) on the VP layout: every scan is a full,
//               unreduced VP table, so join order and semi-join
//               reduction — not the precomputed ExtVP inputs — decide
//               the runtime. Cost plans must run the suite at least
//               1.5x faster than paper plans (EXPERIMENTS.md §IL-3).
//
// Both modes must return identical result sets on every query; a
// divergence is a correctness bug and fails the harness regardless of
// the timings.
//
// Output: a human-readable table on stderr and machine-readable JSON on
// stdout (scripts/bench_json.sh captures it as BENCH_optimizer.json).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/task_pool.h"
#include "core/optimizer.h"
#include "core/s2rdf.h"
#include "engine/profile.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace s2rdf::bench {
namespace {

// Gate thresholds.
constexpr double kMaxBasicRegression = 1.05;  // cost <= paper * 1.05
constexpr double kMinUnboundSpeedup = 1.5;    // paper / cost >= 1.5

struct QueryEntry {
  std::string name;
  std::string suite;  // "basic" | "il-unbound"
  double paper_ms = 0.0;
  double cost_ms = 0.0;
  uint64_t rows = 0;
  bool results_identical = false;
  bool plan_changed = false;  // Fingerprints differ between modes.

  double Speedup() const { return cost_ms > 0.0 ? paper_ms / cost_ms : 0.0; }
};

std::vector<std::vector<std::string>> SortedRows(const core::S2Rdf& db,
                                                 const rdf::Table& table) {
  std::vector<std::vector<std::string>> rows = db.DecodeRows(table);
  std::sort(rows.begin(), rows.end());
  return rows;
}

// With S2RDF_BENCH_EXPLAIN=1, dumps both physical plans to stderr for
// every query — the fastest way to see *why* a speedup gate moved.
// S2RDF_BENCH_EXPLAIN=2 additionally executes with EXPLAIN ANALYZE and
// dumps per-operator actual rows and timings.
void MaybeExplain(core::S2Rdf* db, const std::string& name,
                  const std::string& text, core::Layout layout) {
  const int level = EnvInt("S2RDF_BENCH_EXPLAIN", 0);
  if (level == 0) return;
  for (int m = 0; m < 2; ++m) {
    core::QueryRequest request;
    request.query = text;
    request.options.layout = layout;
    request.options.explain_plan = level < 2;
    request.options.collect_profile = level >= 2;
    request.options.optimizer.mode =
        m == 0 ? core::OptimizerMode::kPaper : core::OptimizerMode::kCost;
    auto result = db->Execute(request);
    if (!result.ok()) continue;
    const std::string rendered =
        level < 2 ? result->plan->ToString()
                  : engine::RenderProfileText(result->profile_data);
    std::fprintf(stderr, "-- %s (%s) --\n%s", name.c_str(),
                 result->optimizer_mode.c_str(), rendered.c_str());
  }
}

// Runs `text` in both optimizer modes, `reps` times each (min wall
// clock), and checks the decoded result sets match.
QueryEntry MeasureQuery(core::S2Rdf* db, const std::string& name,
                        const std::string& suite, const std::string& text,
                        core::Layout layout, int reps) {
  QueryEntry entry;
  entry.name = name;
  entry.suite = suite;
  MaybeExplain(db, name, text, layout);

  std::vector<std::vector<std::string>> rows[2];
  uint64_t fingerprints[2] = {0, 0};
  bool ok = true;
  for (int m = 0; m < 2; ++m) {
    core::QueryRequest request;
    request.query = text;
    request.options.layout = layout;
    request.options.optimizer.mode =
        m == 0 ? core::OptimizerMode::kPaper : core::OptimizerMode::kCost;
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
      auto result = db->Execute(request);
      if (!result.ok()) {
        std::fprintf(stderr, "%s (%s) failed: %s\n", name.c_str(),
                     m == 0 ? "paper" : "cost",
                     result.status().ToString().c_str());
        ok = false;
        break;
      }
      if (r == 0 || result->millis < best) best = result->millis;
      if (r == 0) {
        rows[m] = SortedRows(*db, result->table);
        fingerprints[m] = result->plan_fingerprint;
        if (m == 0) entry.rows = result->table.NumRows();
      }
    }
    if (!ok) break;
    (m == 0 ? entry.paper_ms : entry.cost_ms) = best;
  }
  entry.results_identical = ok && rows[0] == rows[1];
  entry.plan_changed = ok && fingerprints[0] != fingerprints[1];
  return entry;
}

int Run() {
  const int reps = EnvInt("S2RDF_BENCH_ROUNDS", 3);
  watdiv::GeneratorOptions gen;
  gen.scale_factor = EnvDouble("S2RDF_BENCH_SF", 1.0);

  core::S2RdfOptions options;  // ExtVP + VP + TT, serial execution.
  auto db = core::S2Rdf::Create(watdiv::Generate(gen), options);
  if (!db.ok()) {
    std::fprintf(stderr, "store build failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }

  std::vector<QueryEntry> entries;
  for (const watdiv::QueryTemplate& tmpl : watdiv::BasicTestingQueries()) {
    entries.push_back(MeasureQuery(
        db->get(), tmpl.name, "basic",
        InstantiateFor(tmpl, gen.scale_factor, 0), core::Layout::kExtVp,
        reps));
  }
  for (const watdiv::QueryTemplate& tmpl :
       watdiv::IncrementalLinearQueries()) {
    if (tmpl.category != "IL-3") continue;  // The unbound-subject chains.
    entries.push_back(MeasureQuery(
        db->get(), tmpl.name, "il-unbound",
        InstantiateFor(tmpl, gen.scale_factor, 0), core::Layout::kVp, reps));
  }

  double paper_total = 0.0;
  double cost_total = 0.0;
  double unbound_paper = 0.0;
  double unbound_cost = 0.0;
  bool all_identical = true;
  for (const QueryEntry& e : entries) {
    paper_total += e.paper_ms;
    cost_total += e.cost_ms;
    if (e.suite == "il-unbound") {
      unbound_paper += e.paper_ms;
      unbound_cost += e.cost_ms;
    }
    all_identical = all_identical && e.results_identical;
  }
  const bool within_regression =
      cost_total <= paper_total * kMaxBasicRegression;
  const double unbound_speedup =
      unbound_cost > 0.0 ? unbound_paper / unbound_cost : 0.0;
  const bool unbound_fast_enough = unbound_speedup >= kMinUnboundSpeedup;

  TablePrinter printer(
      {"query", "suite", "paper", "cost", "speedup", "plan", "identical"});
  for (const QueryEntry& e : entries) {
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", e.Speedup());
    printer.AddRow({e.name, e.suite, FormatMs(e.paper_ms),
                    FormatMs(e.cost_ms), speedup,
                    e.plan_changed ? "changed" : "same",
                    e.results_identical ? "yes" : "NO"});
  }
  std::fprintf(stderr, "Paper vs cost-based optimizer (min of %d rounds):\n",
               reps);
  printer.Print(stderr);
  std::fprintf(stderr,
               "totals: paper=%.1f ms cost=%.1f ms | IL-3 unbound "
               "speedup=%.2fx (gate >= %.1fx)\n",
               paper_total, cost_total, unbound_speedup, kMinUnboundSpeedup);

  std::printf("{\n");
  std::printf("  \"task_pool_parallelism\": %zu,\n",
              TaskPool::Shared()->ParallelismWidth());
  std::printf("  \"rounds\": %d,\n", reps);
  std::printf("  \"scale_factor\": %.3f,\n", gen.scale_factor);
  std::printf("  \"queries\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const QueryEntry& e = entries[i];
    std::printf("    {\"name\": \"%s\", \"suite\": \"%s\", "
                "\"paper_ms\": %.3f, \"cost_ms\": %.3f, \"speedup\": %.3f, "
                "\"rows\": %llu, \"plan_changed\": %s, "
                "\"results_identical\": %s}%s\n",
                e.name.c_str(), e.suite.c_str(), e.paper_ms, e.cost_ms,
                e.Speedup(), static_cast<unsigned long long>(e.rows),
                e.plan_changed ? "true" : "false",
                e.results_identical ? "true" : "false",
                i + 1 < entries.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"paper_total_ms\": %.3f,\n", paper_total);
  std::printf("  \"cost_total_ms\": %.3f,\n", cost_total);
  std::printf("  \"unbound_paper_ms\": %.3f,\n", unbound_paper);
  std::printf("  \"unbound_cost_ms\": %.3f,\n", unbound_cost);
  std::printf("  \"unbound_speedup\": %.3f,\n", unbound_speedup);
  std::printf("  \"gates\": {\"results_identical\": %s, "
              "\"total_within_regression_budget\": %s, "
              "\"unbound_speedup_at_least_1_5\": %s}\n",
              all_identical ? "true" : "false",
              within_regression ? "true" : "false",
              unbound_fast_enough ? "true" : "false");
  std::printf("}\n");

  if (entries.empty() || !all_identical) return 1;
  if (!within_regression || !unbound_fast_enough) return 1;
  return 0;
}

}  // namespace
}  // namespace s2rdf::bench

int main() { return s2rdf::bench::Run(); }
