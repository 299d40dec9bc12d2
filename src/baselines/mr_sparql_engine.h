#ifndef S2RDF_BASELINES_MR_SPARQL_ENGINE_H_
#define S2RDF_BASELINES_MR_SPARQL_ENGINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "mapreduce/job.h"
#include "rdf/graph.h"
#include "rdf/table.h"
#include "sparql/ast.h"

// MapReduce-based SPARQL baselines:
//
//   SHARD (Rohloff & Schantz): Clause-Iteration — one MapReduce job per
//   triple pattern, building a left-deep join over the running
//   intermediate solution set.
//
//   PigSPARQL (Schätzle et al.): the same data flow but with the
//   multi-join optimization — consecutive patterns joining on the same
//   variable are processed in a single n-ary MapReduce job.
//
// Both execute through the mini MapReduce runtime (real map/shuffle/
// sort/reduce disk round-trips). Cluster job-launch latency is modeled:
// harnesses add `jobs * job_overhead_ms` to the measured wall-clock.

namespace s2rdf::baselines {

enum class MrPlanner {
  kClauseIteration,  // SHARD: one job per triple pattern.
  kMultiJoin,        // PigSPARQL: one job per join variable group.
};

struct MrEngineOptions {
  // Scratch directory for record/shuffle files; must exist.
  std::string work_dir;
  MrPlanner planner = MrPlanner::kClauseIteration;
  int num_reducers = 4;
  uint64_t max_records_in_memory = 1u << 20;
};

struct MrQueryResult {
  rdf::Table table;  // Columns = variables in first-appearance order.
  uint64_t jobs = 0;
  mapreduce::JobMetrics metrics;
  double wall_ms = 0.0;
};

class MrSparqlEngine {
 public:
  // `graph` must outlive the engine.
  MrSparqlEngine(const rdf::Graph* graph, MrEngineOptions options)
      : graph_(*graph), options_(std::move(options)) {}

  // Evaluates a basic graph pattern through MapReduce jobs.
  StatusOr<MrQueryResult> ExecuteBgp(
      const std::vector<sparql::TriplePattern>& bgp) const;

  // Parses and evaluates a SELECT query over a plain BGP. FILTER and
  // solution modifiers are applied in the driver after the final job
  // (as both original systems do for final projections).
  StatusOr<MrQueryResult> Execute(std::string_view sparql) const;

 private:
  const rdf::Graph& graph_;
  MrEngineOptions options_;
};

}  // namespace s2rdf::baselines

#endif  // S2RDF_BASELINES_MR_SPARQL_ENGINE_H_
