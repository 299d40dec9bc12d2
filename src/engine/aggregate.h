#ifndef S2RDF_ENGINE_AGGREGATE_H_
#define S2RDF_ENGINE_AGGREGATE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "engine/exec_context.h"
#include "engine/value.h"
#include "rdf/dictionary.h"
#include "rdf/table.h"
#include "sparql/expr.h"

// GROUP BY / aggregation operator — the SPARQL 1.1 feature the paper's
// Sec. 6.1 defers to future work. Aggregates follow the W3C semantics:
//
//   - grouping keys are term ids (exact term equality);
//   - COUNT(*) counts rows, COUNT(?v) counts bound bindings,
//     COUNT(DISTINCT ?v) distinct bound terms;
//   - SUM/AVG operate on numeric literals (non-numeric bindings make
//     the aggregate unbound, SPARQL's error semantics); SUM of an empty
//     group is 0, AVG is unbound;
//   - MIN/MAX use the value ordering of value.h and return the original
//     term (no new literal is minted);
//   - SAMPLE returns an arbitrary binding;
//   - with no GROUP BY keys the whole input forms one group, and an
//     empty input still yields one row (COUNT = 0).
//
// COUNT/SUM/AVG mint new literals, so the operator takes a mutable
// dictionary.

namespace s2rdf::engine {

using rdf::kNullTermId;
using rdf::Table;
using rdf::TermId;
using sparql::AggregateSpec;

// Groups `input` by `keys` and evaluates `specs` per group. The output
// schema is keys followed by the aggregate output names, one row per
// group in key order.
//
// A morsel kernel (engine/operators.h): a keyed input of
// kParallelRowThreshold rows or more is hash-partitioned by group key, so
// every group is accumulated wholly by one partition in ascending row
// order (no partial-state merging — DISTINCT aggregates and
// floating-point sums stay exact) and the disjoint group maps merge by
// node moves; a smaller input, or the single implicit group of an
// aggregate without GROUP BY, runs as one partition on the caller.
StatusOr<Table> GroupByAggregate(const Table& input,
                                 const std::vector<std::string>& keys,
                                 const std::vector<AggregateSpec>& specs,
                                 rdf::Dictionary* dict, ExecContext* ctx);

// --- Building blocks --------------------------------------------------
//
// The row-at-a-time pieces one GroupByAggregate partition runs, exposed
// so a reference operator can be assembled from the same accumulation
// semantics.

// Running state of one aggregate within one group.
struct Accumulator {
  uint64_t count = 0;
  bool numeric_ok = true;   // All inputs numeric so far (SUM/AVG).
  bool all_int = true;      // Keep SUM integral when inputs are.
  long long int_sum = 0;
  double double_sum = 0.0;
  TermId extremum = kNullTermId;  // MIN/MAX/SAMPLE witness.
  std::unordered_set<TermId> distinct_terms;
};

// Groups keyed by their key tuple; std::map iteration is the output
// order.
using GroupMap = std::map<std::vector<TermId>, std::vector<Accumulator>>;

// Cache of typed values for numeric aggregates. Decode-only, so workers
// may each own one (Dictionary::Decode is shared-lock-safe).
class ValueCache {
 public:
  explicit ValueCache(const rdf::Dictionary& dict) : dict_(dict) {}
  const Value& Get(TermId id);

 private:
  const rdf::Dictionary& dict_;
  std::unordered_map<TermId, Value> cache_;
};

// Resolves key/input columns; fills `input_cols` with -1 for COUNT(*).
Status ResolveAggregateColumns(const Table& input,
                               const std::vector<std::string>& keys,
                               const std::vector<AggregateSpec>& specs,
                               std::vector<int>* key_cols,
                               std::vector<int>* input_cols);

// Folds row `r` into its group's accumulators.
void AccumulateRow(const Table& input, size_t r,
                   const std::vector<AggregateSpec>& specs,
                   const std::vector<int>& input_cols,
                   std::vector<Accumulator>* accs, ValueCache* values);

// Emits one row per group in map order. Mints literals, so it runs on
// the calling thread only. Checks the interrupt state every
// kInterruptCheckRows groups.
Table EmitGroups(const GroupMap& groups, const std::vector<std::string>& keys,
                 const std::vector<AggregateSpec>& specs,
                 rdf::Dictionary* dict, ExecContext* ctx);

}  // namespace s2rdf::engine

#endif  // S2RDF_ENGINE_AGGREGATE_H_
