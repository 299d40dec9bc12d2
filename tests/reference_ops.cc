#include "tests/reference_ops.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/check.h"
#include "engine/value.h"

// The bodies below, SemiJoinRows aside, are the engine's row-at-a-time
// operators as they stood before the morsel kernels replaced them, kept
// verbatim so the reference does not drift with the code it checks.

namespace s2rdf::reference {

using engine::Accumulator;
using engine::AccumulateRow;
using sparql::AggregateSpec;
using engine::CompareValues;
using engine::EmitGroups;
using engine::EmitJoinedRow;
using engine::ExecContext;
using sparql::Expr;
using engine::ExprEvaluator;
using engine::GroupMap;
using engine::JoinOutputSchema;
using engine::JoinSharedColumns;
using engine::kInterruptCheckRows;
using rdf::kNullTermId;
using engine::ResolveAggregateColumns;
using engine::RowKeyHash;
using engine::RowKeyHasNull;
using engine::RowKeysEqual;
using engine::ScanSpec;
using sparql::SortKey;
using rdf::Table;
using rdf::TermId;
using engine::Value;
using engine::ValueCache;
using engine::ValueFromCanonicalTerm;

namespace {

bool ScanSelectProjectRange(const Table& base, const ScanSpec& spec,
                            size_t begin, size_t end, const ExecContext* ctx,
                            Table* out) {
  for (size_t r = begin; r < end; ++r) {
    if (((r - begin) % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->InterruptRequested()) {
      return false;  // Caller discards/records; workers must not record.
    }
    if (spec.row_filter != nullptr && !spec.row_filter->Test(r)) continue;
    bool match = true;
    for (const auto& [col, id] : spec.conditions) {
      if (base.At(r, static_cast<size_t>(col)) != id) {
        match = false;
        break;
      }
    }
    for (int col : spec.not_null_columns) {
      if (base.At(r, static_cast<size_t>(col)) == kNullTermId) {
        match = false;
        break;
      }
    }
    for (const auto& [col_a, col_b] : spec.equal_columns) {
      if (!match) break;
      if (base.At(r, static_cast<size_t>(col_a)) !=
          base.At(r, static_cast<size_t>(col_b))) {
        match = false;
      }
    }
    if (!match) continue;
    std::vector<TermId> row;
    row.reserve(spec.projections.size());
    for (const auto& [col, name] : spec.projections) {
      row.push_back(base.At(r, static_cast<size_t>(col)));
    }
    out->AppendRow(row);
  }
  return true;
}

}  // namespace

Table ScanSelectProject(const Table& base, const ScanSpec& spec,
                        ExecContext* ctx) {
  if (spec.row_filter != nullptr) {
    S2RDF_CHECK(spec.row_filter->size_bits() == base.NumRows());
  }
  if (ctx != nullptr) {
    ctx->metrics.input_tuples += spec.row_filter != nullptr
                                     ? spec.row_filter->CountSetBits()
                                     : base.NumRows();
  }
  std::vector<std::string> names;
  names.reserve(spec.projections.size());
  for (const auto& [col, name] : spec.projections) names.push_back(name);
  Table out(std::move(names));
  if (!ScanSelectProjectRange(base, spec, 0, base.NumRows(), ctx, &out) &&
      ctx != nullptr) {
    // Record why (owner thread); ExecutePlan discards the partial batch.
    ctx->CheckInterrupt();
  }
  if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
  return out;
}

Table HashJoin(const Table& left, const Table& right, ExecContext* ctx) {
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  std::vector<int> right_only;
  JoinSharedColumns(left, right, &left_keys, &right_keys, &right_only);
  Table out = JoinOutputSchema(left, right, right_only);

  if (ctx != nullptr) {
    ctx->metrics.join_comparisons +=
        static_cast<uint64_t>(left.NumRows()) * right.NumRows();
    ctx->AccountShuffle(left.NumRows() + right.NumRows());
  }

  if (left_keys.empty()) {
    // Cross product.
    size_t since_check = 0;
    for (size_t lr = 0; lr < left.NumRows(); ++lr) {
      for (size_t rr = 0; rr < right.NumRows(); ++rr) {
        if (++since_check >= kInterruptCheckRows) {
          since_check = 0;
          if (ctx != nullptr && ctx->CheckInterrupt()) {
            // Partial output; ExecutePlan reports the interrupt.
            ctx->metrics.intermediate_tuples += out.NumRows();
            return out;
          }
        }
        EmitJoinedRow(left, lr, right, rr, right_only, &out);
      }
    }
    if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
    return out;
  }

  // Build on the right, probe with the left (right is typically the
  // newly-selected smallest table under Algorithm 4's ordering). The
  // bucket keeps right rows in ascending order, making the output
  // sequence canonical (left input order, matches ascending) — the
  // contract engine::HashJoin's gather reproduces.
  std::unordered_map<uint64_t, std::vector<size_t>> build;
  build.reserve(right.NumRows());
  for (size_t rr = 0; rr < right.NumRows(); ++rr) {
    if ((rr % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      break;  // Partial build; the probe loop's check fires immediately.
    }
    if (RowKeyHasNull(right, rr, right_keys)) continue;
    build[RowKeyHash(right, rr, right_keys)].push_back(rr);
  }
  for (size_t lr = 0; lr < left.NumRows(); ++lr) {
    if ((lr % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      break;  // Partial output; ExecutePlan reports the interrupt.
    }
    if (RowKeyHasNull(left, lr, left_keys)) continue;
    auto it = build.find(RowKeyHash(left, lr, left_keys));
    if (it == build.end()) continue;
    for (size_t rr : it->second) {
      if (RowKeysEqual(left, lr, left_keys, right, rr, right_keys)) {
        EmitJoinedRow(left, lr, right, rr, right_only, &out);
      }
    }
  }
  if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
  return out;
}

Table Distinct(const Table& t, ExecContext* ctx) {
  // Hash-based dedup with full-row verification via a bucket of row ids.
  std::unordered_multimap<uint64_t, size_t> seen;
  Table out(t.column_names());
  std::vector<int> all_cols(t.NumColumns());
  for (size_t i = 0; i < t.NumColumns(); ++i) all_cols[i] = static_cast<int>(i);
  for (size_t r = 0; r < t.NumRows(); ++r) {
    if ((r % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      break;  // Partial output; ExecutePlan reports the interrupt.
    }
    uint64_t h = RowKeyHash(t, r, all_cols);
    bool duplicate = false;
    auto [begin, end] = seen.equal_range(h);
    for (auto it = begin; it != end; ++it) {
      if (RowKeysEqual(t, r, all_cols, t, it->second, all_cols)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      seen.emplace(h, r);
      out.AppendRowFrom(t, r);
    }
  }
  if (ctx != nullptr) {
    ctx->AccountShuffle(t.NumRows());
    ctx->metrics.intermediate_tuples += out.NumRows();
  }
  return out;
}

Table OrderBy(const Table& t, const std::vector<SortKey>& keys,
              const rdf::Dictionary& dict, ExecContext* ctx) {
  // Decode cache: TermId -> typed Value (ids repeat heavily).
  std::unordered_map<TermId, Value> cache;
  auto value_of = [&](TermId id) -> const Value& {
    auto it = cache.find(id);
    if (it != cache.end()) return it->second;
    Value v =
        id == kNullTermId ? Value() : ValueFromCanonicalTerm(dict.Decode(id));
    return cache.emplace(id, std::move(v)).first->second;
  };

  std::vector<std::pair<int, bool>> key_cols;
  for (const SortKey& key : keys) {
    int c = t.ColumnIndex(key.column);
    if (c >= 0) key_cols.emplace_back(c, key.ascending);
  }

  // Interruptible warmup: decode every sort-key value up front. The
  // decode cost dominates OrderBy, so checking the deadline here bounds
  // the abort latency; the comparator below never reads the clock
  // (returning inconsistent answers mid-sort would break strict weak
  // ordering).
  for (size_t r = 0; r < t.NumRows(); ++r) {
    if ((r % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      return Table(t.column_names());  // ExecutePlan reports why.
    }
    for (const auto& [col, asc] : key_cols) {
      value_of(t.At(r, static_cast<size_t>(col)));
    }
  }

  std::vector<size_t> order(t.NumRows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (const auto& [col, asc] : key_cols) {
      TermId ia = t.At(a, static_cast<size_t>(col));
      TermId ib = t.At(b, static_cast<size_t>(col));
      if (ia == ib) continue;
      bool comparable = true;
      int c = CompareValues(value_of(ia), value_of(ib), &comparable);
      if (c != 0) return asc ? c < 0 : c > 0;
    }
    return false;
  });

  Table out(t.column_names());
  out.Reserve(t.NumRows());
  for (size_t i = 0; i < order.size(); ++i) {
    if ((i % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      break;  // Partial output; ExecutePlan reports the interrupt.
    }
    out.AppendRowFrom(t, order[i]);
  }
  return out;
}

Table Filter(const Table& t, const Expr& expr, const rdf::Dictionary& dict,
             ExecContext* ctx) {
  ExprEvaluator eval(expr, t, dict);
  Table out(t.column_names());
  for (size_t r = 0; r < t.NumRows(); ++r) {
    if ((r % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      break;  // Partial output; ExecutePlan reports the interrupt.
    }
    if (eval.Keep(r)) out.AppendRowFrom(t, r);
  }
  if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
  return out;
}

std::vector<size_t> SemiJoinRows(const Table& left, size_t left_col,
                                 const Table& right, size_t right_col) {
  std::set<TermId> keys;
  for (size_t r = 0; r < right.NumRows(); ++r) {
    keys.insert(right.At(r, right_col));
  }
  std::vector<size_t> rows;
  for (size_t r = 0; r < left.NumRows(); ++r) {
    if (keys.contains(left.At(r, left_col))) rows.push_back(r);
  }
  return rows;
}

StatusOr<Table> GroupByAggregate(const Table& input,
                                 const std::vector<std::string>& keys,
                                 const std::vector<AggregateSpec>& specs,
                                 rdf::Dictionary* dict, ExecContext* ctx) {
  std::vector<int> key_cols;
  std::vector<int> input_cols;
  S2RDF_RETURN_IF_ERROR(
      ResolveAggregateColumns(input, keys, specs, &key_cols, &input_cols));

  // Group rows. std::map keyed by the key tuple gives deterministic
  // output order.
  GroupMap groups;
  if (keys.empty()) {
    // Implicit single group exists even for empty input.
    groups.emplace(std::vector<TermId>{},
                   std::vector<Accumulator>(specs.size()));
  }

  ValueCache values(*dict);
  for (size_t r = 0; r < input.NumRows(); ++r) {
    if ((r % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      break;  // Partial groups; ExecutePlan reports the interrupt.
    }
    std::vector<TermId> key;
    key.reserve(key_cols.size());
    for (int c : key_cols) key.push_back(input.At(r, static_cast<size_t>(c)));
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups
               .emplace(std::move(key),
                        std::vector<Accumulator>(specs.size()))
               .first;
    }
    AccumulateRow(input, r, specs, input_cols, &it->second, &values);
  }

  Table out = EmitGroups(groups, keys, specs, dict, ctx);
  if (ctx != nullptr) {
    ctx->AccountShuffle(input.NumRows());
    ctx->metrics.intermediate_tuples += out.NumRows();
  }
  return out;
}

}  // namespace s2rdf::reference
