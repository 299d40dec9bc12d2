#ifndef S2RDF_TESTS_REFERENCE_OPS_H_
#define S2RDF_TESTS_REFERENCE_OPS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/aggregate.h"
#include "engine/exec_context.h"
#include "engine/expression.h"
#include "engine/operators.h"
#include "rdf/dictionary.h"
#include "rdf/table.h"

// Row-at-a-time reference implementations of the engine's morsel kernels
// (engine/operators.h, engine/aggregate.h): one straightforward loop per
// operator, no morsels, no partitions, no task pool. They define the
// output table (row order included) and the ExecMetrics every kernel must
// reproduce byte for byte. Three things compare against them: the parity
// tests in parallel_test.cc, its speedup floor, and the serial column of
// bench/bench_parallel.cc. SemiJoinRows is the ExtVP kernel's oracle
// (ExtVpOracleTest in integration_test.cc).

namespace s2rdf::reference {

rdf::Table ScanSelectProject(const rdf::Table& base,
                             const engine::ScanSpec& spec,
                             engine::ExecContext* ctx);

rdf::Table Filter(const rdf::Table& t, const sparql::Expr& expr,
                  const rdf::Dictionary& dict, engine::ExecContext* ctx);

rdf::Table HashJoin(const rdf::Table& left, const rdf::Table& right,
                    engine::ExecContext* ctx);

rdf::Table Distinct(const rdf::Table& t, engine::ExecContext* ctx);

rdf::Table OrderBy(const rdf::Table& t,
                   const std::vector<sparql::SortKey>& keys,
                   const rdf::Dictionary& dict, engine::ExecContext* ctx);

// The semi-join `left` ⋉ `right` on left.`left_col` = right.`right_col`,
// row at a time over a std::set of `right`'s join keys: the indices of
// the rows of `left` that find a partner, ascending. Over VP tables it is
// the reduction ExtVP^corr_p1|p2 = VP_p1 ⋉ VP_p2 (Sec. 5.2).
std::vector<size_t> SemiJoinRows(const rdf::Table& left, size_t left_col,
                                 const rdf::Table& right, size_t right_col);

StatusOr<rdf::Table> GroupByAggregate(
    const rdf::Table& input, const std::vector<std::string>& keys,
    const std::vector<sparql::AggregateSpec>& specs, rdf::Dictionary* dict,
    engine::ExecContext* ctx);

}  // namespace s2rdf::reference

#endif  // S2RDF_TESTS_REFERENCE_OPS_H_
