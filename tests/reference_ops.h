#ifndef S2RDF_TESTS_REFERENCE_OPS_H_
#define S2RDF_TESTS_REFERENCE_OPS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/aggregate.h"
#include "engine/exec_context.h"
#include "engine/expression.h"
#include "engine/operators.h"
#include "engine/table.h"
#include "rdf/dictionary.h"

// Row-at-a-time reference implementations of the engine's morsel kernels
// (engine/operators.h, engine/aggregate.h): one straightforward loop per
// operator, no morsels, no partitions, no task pool. They define the
// output table (row order included) and the ExecMetrics every kernel must
// reproduce byte for byte. Three things compare against them: the parity
// tests in parallel_test.cc, its speedup floor, and the serial column of
// bench/bench_parallel.cc.

namespace s2rdf::reference {

engine::Table ScanSelectProject(const engine::Table& base,
                                const engine::ScanSpec& spec,
                                engine::ExecContext* ctx);

engine::Table Filter(const engine::Table& t, const engine::Expr& expr,
                     const rdf::Dictionary& dict, engine::ExecContext* ctx);

engine::Table HashJoin(const engine::Table& left, const engine::Table& right,
                       engine::ExecContext* ctx);

engine::Table Distinct(const engine::Table& t, engine::ExecContext* ctx);

engine::Table OrderBy(const engine::Table& t,
                      const std::vector<engine::SortKey>& keys,
                      const rdf::Dictionary& dict, engine::ExecContext* ctx);

StatusOr<engine::Table> GroupByAggregate(
    const engine::Table& input, const std::vector<std::string>& keys,
    const std::vector<engine::AggregateSpec>& specs, rdf::Dictionary* dict,
    engine::ExecContext* ctx);

}  // namespace s2rdf::reference

#endif  // S2RDF_TESTS_REFERENCE_OPS_H_
