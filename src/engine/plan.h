#ifndef S2RDF_ENGINE_PLAN_H_
#define S2RDF_ENGINE_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/aggregate.h"
#include "engine/operators.h"
#include "rdf/table.h"

// Physical query plans. The SPARQL compiler in src/core lowers algebra
// trees to this IR; ExecutePlan interprets it over a table provider
// (usually a storage Catalog or an in-memory layout map). The IR also
// renders itself as the SQL S2RDF would have sent to Spark (ToSql), which
// is how the paper's Figs. 6/7/11/12 are reproduced in examples/.

namespace s2rdf::engine {

struct PlanNode;
using PlanPtr = std::unique_ptr<PlanNode>;

struct PlanNode {
  enum class Kind {
    kScan,      // Base-table scan with selections + projections.
    kJoin,      // Natural inner join of left/right.
    kLeftJoin,  // Natural left outer join (OPTIONAL), optional filter.
    kUnion,     // Bag union of left/right.
    kFilter,    // FILTER over left.
    kProject,   // Column projection of left.
    kDistinct,  // Duplicate elimination of left.
    kOrderBy,   // Sort of left.
    kSlice,     // OFFSET/LIMIT of left.
    kAggregate, // GROUP BY + aggregates of left (SPARQL 1.1).
    kInlineData,// VALUES block: literal solution rows.
    kEmpty,     // Statically-empty result (SF = 0 shortcut).
    kSemiJoin,  // Left semi join: left rows with a match in right.
  };

  // Physical algorithm for a kJoin node; the optimizer picks per join.
  enum class JoinAlgo {
    kHash,       // Build on right, probe with left (the default).
    kSortMerge,  // Sort both sides on the shared columns, merge.
  };

  Kind kind;

  // kScan.
  std::string table_name;
  // A superset of `table_name` the scan reads instead when that table
  // cannot be loaded — an ExtVP reduction's base VP table (VP ⊇ ExtVP
  // keeps the answer intact); empty when there is none.
  std::string fallback_table;
  // (base column name, canonical constant term) equality selections.
  std::vector<std::pair<std::string, std::string>> selections;
  // (base column name, base column name) equal-value selections.
  std::vector<std::pair<std::string, std::string>> equal_selections;
  // Optional row-filter bitmap over the scanned table (bit-vector ExtVP
  // execution); `row_filter_label` names it in renderings.
  std::shared_ptr<const Bitmap> row_filter;
  std::string row_filter_label;
  // (base column name, output variable) projections.
  std::vector<std::pair<std::string, std::string>> projections;
  // Provenance of the table choice (Algorithm 1), carried for EXPLAIN
  // ANALYZE: layout family ("ExtVP", "VP", "TT", "ExtVP-bitmap"), the
  // catalog selectivity factor, and whether quarantine degraded the
  // choice to a superset table. Purely observational — execution
  // ignores these.
  std::string scan_layout;
  double scan_sf = 1.0;
  bool scan_degraded = false;

  // kJoin: physical algorithm.
  JoinAlgo join_algo = JoinAlgo::kHash;

  // Optimizer estimates, carried for EXPLAIN; < 0 means "not set".
  // Purely observational — execution ignores these.
  double estimated_rows = -1.0;
  double estimated_cost = -1.0;

  // kFilter / kLeftJoin condition.
  ExprPtr filter;

  // kProject.
  std::vector<std::string> columns;

  // kOrderBy.
  std::vector<SortKey> sort_keys;

  // kSlice.
  uint64_t offset = 0;
  uint64_t limit = kNoLimit;

  // kAggregate.
  std::vector<std::string> group_keys;
  std::vector<AggregateSpec> aggregates;

  // kInlineData: rows of canonical terms aligned to `columns`.
  std::vector<std::vector<std::string>> inline_rows;

  // kEmpty: schema of the (empty) result.
  std::vector<std::string> empty_columns;

  PlanPtr left;
  PlanPtr right;

  static PlanPtr Scan(
      std::string table_name,
      std::vector<std::pair<std::string, std::string>> sels,
      std::vector<std::pair<std::string, std::string>> projs,
      std::vector<std::pair<std::string, std::string>> equal_sels = {});
  static PlanPtr Join(PlanPtr left, PlanPtr right);
  static PlanPtr SemiJoinNode(PlanPtr left, PlanPtr right);
  static PlanPtr LeftJoin(PlanPtr left, PlanPtr right, ExprPtr condition);
  static PlanPtr Union(PlanPtr left, PlanPtr right);
  static PlanPtr FilterNode(PlanPtr input, ExprPtr condition);
  static PlanPtr ProjectNode(PlanPtr input, std::vector<std::string> columns);
  static PlanPtr DistinctNode(PlanPtr input);
  static PlanPtr OrderByNode(PlanPtr input, std::vector<SortKey> keys);
  static PlanPtr SliceNode(PlanPtr input, uint64_t offset, uint64_t limit);
  static PlanPtr AggregateNode(PlanPtr input,
                               std::vector<std::string> group_keys,
                               std::vector<AggregateSpec> aggregates);
  static PlanPtr InlineDataNode(std::vector<std::string> columns,
                                std::vector<std::vector<std::string>> rows);
  static PlanPtr Empty(std::vector<std::string> columns);

  // Human-readable operator tree.
  std::string ToString(int indent = 0) const;

  // The equivalent Spark-SQL-style statement (SELECT ... FROM ... JOIN).
  std::string ToSql() const;
};

// Resolves a scan's table: `table_name`, or `fallback_table` (see
// PlanNode) when that cannot be loaded and the fallback is not empty.
// Returns nullptr when neither resolves (ExecutePlan turns that into a
// NotFound error).
using TableProvider = std::function<const Table*(
    const std::string& table_name, const std::string& fallback_table)>;

// Interprets `plan` bottom-up. The dictionary is mutable because
// aggregates mint new literals (counts, sums).
StatusOr<Table> ExecutePlan(const PlanNode& plan, const TableProvider& tables,
                            rdf::Dictionary* dict, ExecContext* ctx);

// FNV-1a hash of the rendered plan tree — a stable fingerprint for
// telling plans apart in /debug/queries and traces.
uint64_t PlanFingerprint(const PlanNode& plan);

}  // namespace s2rdf::engine

#endif  // S2RDF_ENGINE_PLAN_H_
