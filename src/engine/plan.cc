#include "engine/plan.h"

#include <chrono>
#include <cstdio>

#include "common/check.h"
#include "common/hash.h"

namespace s2rdf::engine {

PlanPtr PlanNode::Scan(
    std::string table_name,
    std::vector<std::pair<std::string, std::string>> sels,
    std::vector<std::pair<std::string, std::string>> projs,
    std::vector<std::pair<std::string, std::string>> equal_sels) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kScan;
  n->table_name = std::move(table_name);
  n->selections = std::move(sels);
  n->projections = std::move(projs);
  n->equal_selections = std::move(equal_sels);
  return n;
}

PlanPtr PlanNode::Join(PlanPtr left, PlanPtr right) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kJoin;
  n->left = std::move(left);
  n->right = std::move(right);
  return n;
}

PlanPtr PlanNode::SemiJoinNode(PlanPtr left, PlanPtr right) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kSemiJoin;
  n->left = std::move(left);
  n->right = std::move(right);
  return n;
}

PlanPtr PlanNode::LeftJoin(PlanPtr left, PlanPtr right, ExprPtr condition) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kLeftJoin;
  n->left = std::move(left);
  n->right = std::move(right);
  n->filter = std::move(condition);
  return n;
}

PlanPtr PlanNode::Union(PlanPtr left, PlanPtr right) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kUnion;
  n->left = std::move(left);
  n->right = std::move(right);
  return n;
}

PlanPtr PlanNode::FilterNode(PlanPtr input, ExprPtr condition) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kFilter;
  n->left = std::move(input);
  n->filter = std::move(condition);
  return n;
}

PlanPtr PlanNode::ProjectNode(PlanPtr input, std::vector<std::string> columns) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kProject;
  n->left = std::move(input);
  n->columns = std::move(columns);
  return n;
}

PlanPtr PlanNode::DistinctNode(PlanPtr input) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kDistinct;
  n->left = std::move(input);
  return n;
}

PlanPtr PlanNode::OrderByNode(PlanPtr input, std::vector<SortKey> keys) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kOrderBy;
  n->left = std::move(input);
  n->sort_keys = std::move(keys);
  return n;
}

PlanPtr PlanNode::SliceNode(PlanPtr input, uint64_t offset, uint64_t limit) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kSlice;
  n->left = std::move(input);
  n->offset = offset;
  n->limit = limit;
  return n;
}

PlanPtr PlanNode::AggregateNode(PlanPtr input,
                                std::vector<std::string> group_keys,
                                std::vector<AggregateSpec> aggregates) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kAggregate;
  n->left = std::move(input);
  n->group_keys = std::move(group_keys);
  n->aggregates = std::move(aggregates);
  return n;
}

PlanPtr PlanNode::InlineDataNode(
    std::vector<std::string> columns,
    std::vector<std::vector<std::string>> rows) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kInlineData;
  n->columns = std::move(columns);
  n->inline_rows = std::move(rows);
  return n;
}

PlanPtr PlanNode::Empty(std::vector<std::string> columns) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kEmpty;
  n->empty_columns = std::move(columns);
  return n;
}

namespace {
std::string Indent(int n) { return std::string(static_cast<size_t>(n) * 2, ' '); }

// Renders the optimizer's row estimate compactly; "" when unset.
std::string EstSuffix(double estimated_rows) {
  if (estimated_rows < 0.0) return "";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "  est=%.6g", estimated_rows);
  return buf;
}
}  // namespace

std::string PlanNode::ToString(int indent) const {
  std::string out = Indent(indent);
  switch (kind) {
    case Kind::kScan: {
      out += "Scan(" + table_name;
      for (const auto& [col, val] : selections) {
        out += ", " + col + "=" + val;
      }
      if (row_filter != nullptr) out += ", bitmap=" + row_filter_label;
      out += ") -> [";
      for (size_t i = 0; i < projections.size(); ++i) {
        if (i > 0) out += ", ";
        out += projections[i].first + " AS " + projections[i].second;
      }
      out += "]" + EstSuffix(estimated_rows) + "\n";
      return out;
    }
    case Kind::kJoin:
      out += (join_algo == JoinAlgo::kSortMerge ? "MergeJoin" : "Join") +
             EstSuffix(estimated_rows) + "\n";
      break;
    case Kind::kSemiJoin:
      out += "SemiJoinReduce" + EstSuffix(estimated_rows) + "\n";
      break;
    case Kind::kLeftJoin:
      out += "LeftJoin";
      if (filter != nullptr) out += " ON " + filter->ToString();
      out += "\n";
      break;
    case Kind::kUnion:
      out += "Union\n";
      break;
    case Kind::kFilter:
      out += "Filter " + filter->ToString() + "\n";
      break;
    case Kind::kProject: {
      out += "Project [";
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += columns[i];
      }
      out += "]\n";
      break;
    }
    case Kind::kDistinct:
      out += "Distinct\n";
      break;
    case Kind::kOrderBy: {
      out += "OrderBy [";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += sort_keys[i].column + (sort_keys[i].ascending ? " ASC" : " DESC");
      }
      out += "]\n";
      break;
    }
    case Kind::kSlice:
      out += "Slice offset=" + std::to_string(offset) +
             (limit == kNoLimit ? "" : " limit=" + std::to_string(limit)) +
             "\n";
      break;
    case Kind::kAggregate: {
      out += "Aggregate [";
      for (size_t i = 0; i < group_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += group_keys[i];
      }
      out += "] -> [";
      for (size_t i = 0; i < aggregates.size(); ++i) {
        if (i > 0) out += ", ";
        out += aggregates[i].output_name;
      }
      out += "]\n";
      break;
    }
    case Kind::kInlineData:
      out += "InlineData [" + std::to_string(inline_rows.size()) +
             " rows]\n";
      return out;
    case Kind::kEmpty:
      out += "Empty\n";
      return out;
  }
  if (left != nullptr) out += left->ToString(indent + 1);
  if (right != nullptr) out += right->ToString(indent + 1);
  return out;
}

std::string PlanNode::ToSql() const {
  switch (kind) {
    case Kind::kScan: {
      std::string sql = "SELECT ";
      for (size_t i = 0; i < projections.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += projections[i].first + " AS " + projections[i].second;
      }
      sql += " FROM " + table_name;
      bool have_where = false;
      if (!selections.empty()) {
        sql += " WHERE ";
        have_where = true;
        for (size_t i = 0; i < selections.size(); ++i) {
          if (i > 0) sql += " AND ";
          sql += selections[i].first + " = '" + selections[i].second + "'";
        }
      }
      if (row_filter != nullptr) {
        sql += have_where ? " AND " : " WHERE ";
        sql += "rowid IN BITMAP(" + row_filter_label + ")";
      }
      return sql;
    }
    case Kind::kJoin:
      return "(" + left->ToSql() + ")\n  NATURAL JOIN\n(" + right->ToSql() +
             ")";
    case Kind::kSemiJoin:
      return "(" + left->ToSql() + ")\n  LEFT SEMI JOIN\n(" +
             right->ToSql() + ")";
    case Kind::kLeftJoin:
      return "(" + left->ToSql() + ")\n  NATURAL LEFT OUTER JOIN\n(" +
             right->ToSql() + ")" +
             (filter != nullptr ? " ON " + filter->ToString() : "");
    case Kind::kUnion:
      return "(" + left->ToSql() + ")\nUNION ALL\n(" + right->ToSql() + ")";
    case Kind::kFilter:
      return "SELECT * FROM (" + left->ToSql() + ") WHERE " +
             filter->ToString();
    case Kind::kProject: {
      std::string sql = "SELECT ";
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += columns[i];
      }
      return sql + " FROM (" + left->ToSql() + ")";
    }
    case Kind::kDistinct:
      return "SELECT DISTINCT * FROM (" + left->ToSql() + ")";
    case Kind::kOrderBy: {
      std::string sql = left->ToSql() + "\nORDER BY ";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += sort_keys[i].column + (sort_keys[i].ascending ? "" : " DESC");
      }
      return sql;
    }
    case Kind::kSlice: {
      std::string sql = left->ToSql();
      if (limit != kNoLimit) sql += "\nLIMIT " + std::to_string(limit);
      if (offset > 0) sql += "\nOFFSET " + std::to_string(offset);
      return sql;
    }
    case Kind::kAggregate: {
      auto fn_name = [](AggregateSpec::Fn fn) {
        switch (fn) {
          case AggregateSpec::Fn::kCountStar:
            return "COUNT(*)";
          case AggregateSpec::Fn::kCount:
            return "COUNT";
          case AggregateSpec::Fn::kSum:
            return "SUM";
          case AggregateSpec::Fn::kAvg:
            return "AVG";
          case AggregateSpec::Fn::kMin:
            return "MIN";
          case AggregateSpec::Fn::kMax:
            return "MAX";
          case AggregateSpec::Fn::kSample:
            return "SAMPLE";
        }
        return "?";
      };
      std::string sql = "SELECT ";
      for (size_t i = 0; i < group_keys.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += group_keys[i];
      }
      for (size_t i = 0; i < aggregates.size(); ++i) {
        if (i > 0 || !group_keys.empty()) sql += ", ";
        const AggregateSpec& agg = aggregates[i];
        if (agg.fn == AggregateSpec::Fn::kCountStar) {
          sql += "COUNT(*)";
        } else {
          sql += std::string(fn_name(agg.fn)) + "(" +
                 (agg.distinct ? "DISTINCT " : "") + agg.input_var + ")";
        }
        sql += " AS " + agg.output_name;
      }
      sql += " FROM (" + left->ToSql() + ")";
      if (!group_keys.empty()) {
        sql += "\nGROUP BY ";
        for (size_t i = 0; i < group_keys.size(); ++i) {
          if (i > 0) sql += ", ";
          sql += group_keys[i];
        }
      }
      return sql;
    }
    case Kind::kInlineData: {
      std::string sql = "VALUES (";
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += columns[i];
      }
      sql += ") -- " + std::to_string(inline_rows.size()) + " rows";
      return sql;
    }
    case Kind::kEmpty:
      return "SELECT * FROM empty  -- statically empty (SF = 0)";
  }
  return "";
}

namespace {

// Short label of a node for EXPLAIN ANALYZE output.
std::string NodeLabel(const PlanNode& plan) {
  switch (plan.kind) {
    case PlanNode::Kind::kScan:
      return "Scan(" + plan.table_name +
             (plan.row_filter != nullptr
                  ? ", bitmap=" + plan.row_filter_label
                  : "") +
             ")";
    case PlanNode::Kind::kJoin:
      return plan.join_algo == PlanNode::JoinAlgo::kSortMerge ? "MergeJoin"
                                                              : "Join";
    case PlanNode::Kind::kSemiJoin:
      return "SemiJoinReduce";
    case PlanNode::Kind::kLeftJoin:
      return "LeftJoin";
    case PlanNode::Kind::kUnion:
      return "Union";
    case PlanNode::Kind::kFilter:
      return "Filter " + (plan.filter != nullptr ? plan.filter->ToString()
                                                 : std::string());
    case PlanNode::Kind::kProject:
      return "Project";
    case PlanNode::Kind::kDistinct:
      return "Distinct";
    case PlanNode::Kind::kOrderBy:
      return "OrderBy";
    case PlanNode::Kind::kSlice:
      return "Slice";
    case PlanNode::Kind::kAggregate:
      return "Aggregate";
    case PlanNode::Kind::kInlineData:
      return "InlineData";
    case PlanNode::Kind::kEmpty:
      return "Empty";
  }
  return "?";
}

StatusOr<Table> ExecutePlanImpl(const PlanNode& plan,
                                const TableProvider& tables,
                                rdf::Dictionary* dict, ExecContext* ctx,
                                int depth);

// Wraps one child execution with profiling bookkeeping.
StatusOr<Table> ExecuteChild(const PlanNode& plan, const TableProvider& tables,
                             rdf::Dictionary* dict, ExecContext* ctx,
                             int depth) {
  return ExecutePlanImpl(plan, tables, dict, ctx, depth);
}

StatusOr<Table> ExecutePlanImpl(const PlanNode& plan,
                                const TableProvider& tables,
                                rdf::Dictionary* dict, ExecContext* ctx,
                                int depth) {
  // Operator-boundary deadline/cancellation check: every node entry
  // (and therefore every child hand-off) observes the interrupt state.
  if (ctx != nullptr && ctx->CheckInterrupt()) return ctx->interrupt_status;
  const bool profiling = ctx != nullptr && ctx->collect_profile;
  MonotonicTime start{};
  size_t profile_slot = 0;
  ExecMetrics before;
  if (profiling) {
    // Reserve the slot now so entries render in pre-order.
    profile_slot = ctx->profile.size();
    OperatorProfile op;
    op.label = NodeLabel(plan);
    op.depth = depth;
    op.estimated_rows = plan.estimated_rows;
    if (plan.kind == PlanNode::Kind::kScan) {
      op.table = plan.table_name;
      op.layout = plan.scan_layout;
      op.sf = plan.scan_sf;
      op.degraded = plan.scan_degraded;
    }
    before = ctx->metrics;
    start = MonotonicNow();
    op.start_ms = std::chrono::duration<double, std::milli>(
                      start - ctx->profile_origin)
                      .count();
    ctx->profile.push_back(std::move(op));
  }
  // Materialized input bytes still live while this operator produces its
  // output; each case sets it after executing children. Together with
  // the result's own bytes it feeds the peak_table_bytes high-water
  // mark. Base (stored) tables are store-resident, not query
  // allocations, so scans account only their output.
  uint64_t live_input_bytes = 0;
  StatusOr<Table> result = [&]() -> StatusOr<Table> {
  switch (plan.kind) {
    case PlanNode::Kind::kEmpty:
      return Table(plan.empty_columns);
    case PlanNode::Kind::kScan: {
      const Table* base = tables(plan.table_name, plan.fallback_table);
      if (base == nullptr) {
        return NotFoundError("table not found: " + plan.table_name);
      }
      ScanSpec spec;
      for (const auto& [col, val] : plan.selections) {
        int idx = base->ColumnIndex(col);
        if (idx < 0) {
          return InvalidArgumentError("scan selection on unknown column: " +
                                      col);
        }
        std::optional<TermId> id = dict->Find(val);
        if (!id.has_value()) {
          // Constant not in the dataset: no row can match.
          spec.conditions.emplace_back(idx, kNullTermId);
        } else {
          spec.conditions.emplace_back(idx, *id);
        }
      }
      for (const auto& [col_a, col_b] : plan.equal_selections) {
        int ia = base->ColumnIndex(col_a);
        int ib = base->ColumnIndex(col_b);
        if (ia < 0 || ib < 0) {
          return InvalidArgumentError("equal-selection on unknown column");
        }
        spec.equal_columns.emplace_back(ia, ib);
      }
      for (const auto& [col, name] : plan.projections) {
        int idx = base->ColumnIndex(col);
        if (idx < 0) {
          return InvalidArgumentError("scan projection on unknown column: " +
                                      col);
        }
        spec.projections.emplace_back(idx, name);
      }
      if (plan.row_filter != nullptr) {
        if (plan.row_filter->size_bits() != base->NumRows()) {
          return FailedPreconditionError(
              "row-filter bitmap size does not match table " +
              plan.table_name);
        }
        spec.row_filter = plan.row_filter.get();
      }
      return ScanSelectProject(*base, spec, ctx);
    }
    case PlanNode::Kind::kJoin: {
      S2RDF_ASSIGN_OR_RETURN(Table l,
                             ExecuteChild(*plan.left, tables, dict, ctx, depth + 1));
      S2RDF_ASSIGN_OR_RETURN(Table r,
                             ExecuteChild(*plan.right, tables, dict, ctx, depth + 1));
      live_input_bytes = l.ApproxBytes() + r.ApproxBytes();
      if (plan.join_algo == PlanNode::JoinAlgo::kSortMerge) {
        // Same bag as HashJoin in a different order.
        return SortMergeJoin(l, r, ctx);
      }
      return HashJoin(l, r, ctx);
    }
    case PlanNode::Kind::kSemiJoin: {
      S2RDF_ASSIGN_OR_RETURN(Table l,
                             ExecuteChild(*plan.left, tables, dict, ctx, depth + 1));
      S2RDF_ASSIGN_OR_RETURN(Table r,
                             ExecuteChild(*plan.right, tables, dict, ctx, depth + 1));
      live_input_bytes = l.ApproxBytes() + r.ApproxBytes();
      std::vector<int> left_keys;
      std::vector<int> right_keys;
      std::vector<int> right_only;
      JoinSharedColumns(l, r, &left_keys, &right_keys, &right_only);
      if (left_keys.size() != 1) {
        return InternalError(
            "semi-join reducer requires exactly one shared column, got " +
            std::to_string(left_keys.size()));
      }
      // Preserves left row order, so wrapping a scan in a reducer never
      // changes the downstream hash-join output sequence.
      return SemiJoin(l, left_keys[0], r, right_keys[0], ctx);
    }
    case PlanNode::Kind::kLeftJoin: {
      S2RDF_ASSIGN_OR_RETURN(Table l,
                             ExecuteChild(*plan.left, tables, dict, ctx, depth + 1));
      S2RDF_ASSIGN_OR_RETURN(Table r,
                             ExecuteChild(*plan.right, tables, dict, ctx, depth + 1));
      live_input_bytes = l.ApproxBytes() + r.ApproxBytes();
      return LeftOuterJoin(l, r, plan.filter.get(), *dict, ctx);
    }
    case PlanNode::Kind::kUnion: {
      S2RDF_ASSIGN_OR_RETURN(Table l,
                             ExecuteChild(*plan.left, tables, dict, ctx, depth + 1));
      S2RDF_ASSIGN_OR_RETURN(Table r,
                             ExecuteChild(*plan.right, tables, dict, ctx, depth + 1));
      live_input_bytes = l.ApproxBytes() + r.ApproxBytes();
      return UnionAll(l, r, ctx);
    }
    case PlanNode::Kind::kFilter: {
      S2RDF_ASSIGN_OR_RETURN(Table l,
                             ExecuteChild(*plan.left, tables, dict, ctx, depth + 1));
      live_input_bytes = l.ApproxBytes();
      return Filter(l, *plan.filter, *dict, ctx);
    }
    case PlanNode::Kind::kProject: {
      S2RDF_ASSIGN_OR_RETURN(Table l,
                             ExecuteChild(*plan.left, tables, dict, ctx, depth + 1));
      live_input_bytes = l.ApproxBytes();
      return Project(l, plan.columns);
    }
    case PlanNode::Kind::kDistinct: {
      S2RDF_ASSIGN_OR_RETURN(Table l,
                             ExecuteChild(*plan.left, tables, dict, ctx, depth + 1));
      live_input_bytes = l.ApproxBytes();
      return Distinct(l, ctx);
    }
    case PlanNode::Kind::kOrderBy: {
      S2RDF_ASSIGN_OR_RETURN(Table l,
                             ExecuteChild(*plan.left, tables, dict, ctx, depth + 1));
      live_input_bytes = l.ApproxBytes();
      return OrderBy(l, plan.sort_keys, *dict, ctx);
    }
    case PlanNode::Kind::kSlice: {
      S2RDF_ASSIGN_OR_RETURN(Table l,
                             ExecuteChild(*plan.left, tables, dict, ctx, depth + 1));
      live_input_bytes = l.ApproxBytes();
      return Slice(l, plan.offset, plan.limit);
    }
    case PlanNode::Kind::kAggregate: {
      S2RDF_ASSIGN_OR_RETURN(Table l,
                             ExecuteChild(*plan.left, tables, dict, ctx, depth + 1));
      live_input_bytes = l.ApproxBytes();
      return GroupByAggregate(l, plan.group_keys, plan.aggregates, dict,
                              ctx);
    }
    case PlanNode::Kind::kInlineData: {
      Table table(plan.columns);
      // Bounded by the VALUES clause in the query text, not by data
      // size, so the interrupt seam is not needed here.
      // s2rdf-lint: allow(interrupt-coverage)
      for (const auto& row : plan.inline_rows) {
        std::vector<TermId> encoded;
        encoded.reserve(row.size());
        // Encode (not Find): a VALUES constant absent from the data is
        // still a valid binding of the inline block.
        for (const std::string& term : row) {
          encoded.push_back(dict->Encode(term));
        }
        table.AppendRow(encoded);
      }
      if (ctx != nullptr) ctx->metrics.intermediate_tuples += table.NumRows();
      return table;
    }
  }
  return InternalError("unreachable plan kind");
  }();
  if (result.ok() && ctx != nullptr) {
    ctx->AccountTableBytes(live_input_bytes + result->ApproxBytes());
  }
  if (profiling) {
    OperatorProfile& op = ctx->profile[profile_slot];
    op.millis = MillisSince(start);
    op.delta = ctx->metrics.DeltaSince(before);
    if (result.ok()) op.output_rows = result->NumRows();
  }
  return result;
}

}  // namespace

StatusOr<Table> ExecutePlan(const PlanNode& plan, const TableProvider& tables,
                            rdf::Dictionary* dict, ExecContext* ctx) {
  if (ctx != nullptr && ctx->collect_profile &&
      ctx->profile_origin == MonotonicTime{}) {
    // Callers that drive ExecutePlan directly (tests, benchmarks) get a
    // usable zero point; core::S2Rdf sets the origin at request start so
    // operator offsets include parse/compile.
    ctx->profile_origin = MonotonicNow();
  }
  StatusOr<Table> result = ExecutePlanImpl(plan, tables, dict, ctx, 0);
  // An operator may have bailed out mid-loop with a partial table;
  // never let that escape as a successful result.
  if (result.ok() && ctx != nullptr && !ctx->interrupt_status.ok()) {
    return ctx->interrupt_status;
  }
  return result;
}

uint64_t PlanFingerprint(const PlanNode& plan) {
  return Fnv1a64(plan.ToString());
}

}  // namespace s2rdf::engine
