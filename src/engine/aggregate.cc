#include "engine/aggregate.h"

#include <atomic>
#include <cstdio>

#include "engine/operators.h"

namespace s2rdf::engine {

namespace {

constexpr std::string_view kXsdInteger =
    "http://www.w3.org/2001/XMLSchema#integer";
constexpr std::string_view kXsdDouble =
    "http://www.w3.org/2001/XMLSchema#double";

std::string RenderDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  // Guarantee a decimal form that round-trips as xsd:double.
  std::string out = buf;
  if (out.find('.') == std::string::npos &&
      out.find('e') == std::string::npos &&
      out.find("inf") == std::string::npos &&
      out.find("nan") == std::string::npos) {
    out += ".0";
  }
  return out;
}

TermId EncodeInteger(long long v, rdf::Dictionary* dict) {
  return dict->Encode("\"" + std::to_string(v) + "\"^^<" +
                      std::string(kXsdInteger) + ">");
}

TermId EncodeDouble(double v, rdf::Dictionary* dict) {
  return dict->Encode("\"" + RenderDouble(v) + "\"^^<" +
                      std::string(kXsdDouble) + ">");
}

}  // namespace

const Value& ValueCache::Get(TermId id) {
  auto it = cache_.find(id);
  if (it != cache_.end()) return it->second;
  Value v = id == kNullTermId ? Value()
                              : ValueFromCanonicalTerm(dict_.Decode(id));
  return cache_.emplace(id, std::move(v)).first->second;
}

Status ResolveAggregateColumns(const Table& input,
                               const std::vector<std::string>& keys,
                               const std::vector<AggregateSpec>& specs,
                               std::vector<int>* key_cols,
                               std::vector<int>* input_cols) {
  for (const std::string& key : keys) {
    int c = input.ColumnIndex(key);
    if (c < 0) {
      return InvalidArgumentError("GROUP BY variable not in scope: ?" + key);
    }
    key_cols->push_back(c);
  }
  for (const AggregateSpec& spec : specs) {
    if (spec.fn == AggregateSpec::Fn::kCountStar) {
      input_cols->push_back(-1);
      continue;
    }
    int c = input.ColumnIndex(spec.input_var);
    if (c < 0) {
      return InvalidArgumentError("aggregate over unbound variable: ?" +
                                  spec.input_var);
    }
    input_cols->push_back(c);
  }
  return Status::Ok();
}

void AccumulateRow(const Table& input, size_t r,
                   const std::vector<AggregateSpec>& specs,
                   const std::vector<int>& input_cols,
                   std::vector<Accumulator>* accs, ValueCache* values) {
  for (size_t a = 0; a < specs.size(); ++a) {
    const AggregateSpec& spec = specs[a];
    Accumulator& acc = (*accs)[a];
    if (spec.fn == AggregateSpec::Fn::kCountStar) {
      ++acc.count;
      continue;
    }
    TermId id = input.At(r, static_cast<size_t>(input_cols[a]));
    if (id == kNullTermId) continue;  // Unbound bindings are skipped.
    if (spec.distinct && !acc.distinct_terms.insert(id).second) continue;
    ++acc.count;
    switch (spec.fn) {
      case AggregateSpec::Fn::kCount:
        break;
      case AggregateSpec::Fn::kSum:
      case AggregateSpec::Fn::kAvg: {
        const Value& v = values->Get(id);
        if (!v.is_numeric()) {
          acc.numeric_ok = false;
          break;
        }
        if (v.kind == ValueKind::kInt) {
          acc.int_sum += v.int_value;
          acc.double_sum += static_cast<double>(v.int_value);
        } else {
          acc.all_int = false;
          acc.double_sum += v.double_value;
        }
        break;
      }
      case AggregateSpec::Fn::kMin:
      case AggregateSpec::Fn::kMax: {
        if (acc.extremum == kNullTermId) {
          acc.extremum = id;
          break;
        }
        bool comparable = true;
        int c = CompareValues(values->Get(id), values->Get(acc.extremum),
                              &comparable);
        bool better = spec.fn == AggregateSpec::Fn::kMin ? c < 0 : c > 0;
        if (better) acc.extremum = id;
        break;
      }
      case AggregateSpec::Fn::kSample:
        if (acc.extremum == kNullTermId) acc.extremum = id;
        break;
      case AggregateSpec::Fn::kCountStar:
        break;
    }
  }
}

Table EmitGroups(const GroupMap& groups,
                 const std::vector<std::string>& keys,
                 const std::vector<AggregateSpec>& specs,
                 rdf::Dictionary* dict, ExecContext* ctx) {
  std::vector<std::string> names = keys;
  for (const AggregateSpec& spec : specs) names.push_back(spec.output_name);
  Table out(names);
  size_t emitted = 0;
  for (const auto& [key, accs] : groups) {
    if ((emitted++ % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      break;  // Partial output; ExecutePlan reports the interrupt.
    }
    std::vector<TermId> row = key;
    for (size_t a = 0; a < specs.size(); ++a) {
      const AggregateSpec& spec = specs[a];
      const Accumulator& acc = accs[a];
      switch (spec.fn) {
        case AggregateSpec::Fn::kCountStar:
        case AggregateSpec::Fn::kCount:
          row.push_back(EncodeInteger(static_cast<long long>(acc.count),
                                      dict));
          break;
        case AggregateSpec::Fn::kSum:
          if (!acc.numeric_ok) {
            row.push_back(kNullTermId);  // Type error -> unbound.
          } else if (acc.all_int) {
            row.push_back(EncodeInteger(acc.int_sum, dict));
          } else {
            row.push_back(EncodeDouble(acc.double_sum, dict));
          }
          break;
        case AggregateSpec::Fn::kAvg:
          if (!acc.numeric_ok || acc.count == 0) {
            row.push_back(kNullTermId);
          } else {
            row.push_back(EncodeDouble(
                acc.double_sum / static_cast<double>(acc.count), dict));
          }
          break;
        case AggregateSpec::Fn::kMin:
        case AggregateSpec::Fn::kMax:
        case AggregateSpec::Fn::kSample:
          row.push_back(acc.extremum);
          break;
      }
    }
    out.AppendRow(row);
  }
  return out;
}

StatusOr<Table> GroupByAggregate(const Table& input,
                                 const std::vector<std::string>& keys,
                                 const std::vector<AggregateSpec>& specs,
                                 rdf::Dictionary* dict, ExecContext* ctx) {
  std::vector<int> key_cols;
  std::vector<int> input_cols;
  S2RDF_RETURN_IF_ERROR(
      ResolveAggregateColumns(input, keys, specs, &key_cols, &input_cols));
  const size_t n = input.NumRows();

  // The implicit single group cannot be split group-exclusively; keyed
  // groups are hash-partitioned when the input fans out, so each lands
  // wholly in one partition and the partition maps are disjoint.
  const FanOut fan(n, key_cols.size());
  const size_t parts = keys.empty() ? 1 : fan.width;
  std::vector<GroupMap> partial(parts);
  if (keys.empty()) {
    // Implicit single group exists even for empty input.
    partial[0].emplace(std::vector<TermId>{},
                       std::vector<Accumulator>(specs.size()));
  }
  std::vector<uint64_t> hashes;
  std::atomic<bool> interrupted{false};
  if (parts > 1 &&
      !HashRows(input, key_cols, fan, ctx, "group hash morsel", &hashes)) {
    interrupted.store(true, std::memory_order_relaxed);
  } else {
    fan.Run(parts, [&](size_t w) {
      ScopedTaskSpan span(ctx, fan.partitioned, "group partition", w);
      ValueCache values(*dict);
      GroupMap& groups = partial[w];
      // One key buffer per partition; a group's map node copies it once.
      std::vector<TermId> key(key_cols.size());
      for (size_t r = 0; r < n; ++r) {
        if ((r % kInterruptCheckRows) == 0 && ctx != nullptr &&
            ctx->InterruptRequested()) {
          interrupted.store(true, std::memory_order_relaxed);
          return;
        }
        if (parts > 1 && PartitionOf(hashes[r], parts) != w) continue;
        for (size_t i = 0; i < key_cols.size(); ++i) {
          key[i] = input.At(r, static_cast<size_t>(key_cols[i]));
        }
        auto it = groups.find(key);
        if (it == groups.end()) {
          it = groups.emplace(key, std::vector<Accumulator>(specs.size()))
                   .first;
        }
        AccumulateRow(input, r, specs, input_cols, &it->second, &values);
      }
    });
  }
  if (ctx != nullptr) ctx->AccountShuffle(n);
  if (interrupted.load(std::memory_order_relaxed)) {
    if (ctx != nullptr) ctx->CheckInterrupt();
    std::vector<std::string> names = keys;
    for (const AggregateSpec& spec : specs) names.push_back(spec.output_name);
    return Table(names);  // Empty; ExecutePlan reports the interrupt.
  }

  // Merge the disjoint ordered maps; node moves, no re-accumulation.
  GroupMap groups = std::move(partial[0]);
  for (size_t w = 1; w < parts; ++w) groups.merge(partial[w]);
  Table out = EmitGroups(groups, keys, specs, dict, ctx);
  if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
  return out;
}

}  // namespace s2rdf::engine
