#ifndef S2RDF_ENGINE_PROFILE_H_
#define S2RDF_ENGINE_PROFILE_H_

#include <string>
#include <vector>

#include "engine/exec_context.h"

// Structured query profiles and their renderings. A QueryProfile is the
// per-query observability record: the operator tree the executor ran
// (with table/layout/SF provenance, row counts and metric deltas), the
// morsel/partition task spans of parallel operators, and the
// parse/compile/execute stage split. Two renderings:
//
//   RenderProfileText  -> the EXPLAIN ANALYZE text a human reads,
//   RenderTraceJson    -> Chrome trace_event JSON (chrome://tracing,
//                         Perfetto) with stages and operators on lane 0
//                         and parallel tasks on per-partition lanes.
//
// Collection is driven by QueryOptions::collect_profile; when off,
// nothing here runs and the executor records nothing.

namespace s2rdf::engine {

struct QueryProfile {
  // Request-scoped trace id (empty when the caller did not assign one).
  // Rendered in the EXPLAIN ANALYZE header and as Chrome trace metadata
  // so a /sparql response, a slow-query line and a dumped trace file
  // can be joined on it.
  std::string trace_id;
  // Pre-order operator tree (depth reconstructs the shape).
  std::vector<OperatorProfile> operators;
  // Morsel/partition spans of partitioned operators (empty when every
  // operator input stayed below kParallelRowThreshold).
  std::vector<TaskSpan> tasks;
  // Stage split of the request, milliseconds.
  double parse_ms = 0.0;
  double compile_ms = 0.0;
  double exec_ms = 0.0;
  double total_ms = 0.0;
  // Whole-query metric totals (the operator deltas sum to these).
  ExecMetrics totals;
};

// EXPLAIN ANALYZE text: stage header, indented operator tree with rows,
// inclusive wall time, scan provenance and metric deltas, totals footer.
std::string RenderProfileText(const QueryProfile& profile);

// Chrome trace_event JSON ("traceEvents" array of complete events,
// timestamps in microseconds). `name` labels the trace (typically the
// query string, truncated by the caller if huge).
std::string RenderTraceJson(const QueryProfile& profile,
                            const std::string& name);

}  // namespace s2rdf::engine

#endif  // S2RDF_ENGINE_PROFILE_H_
