#include "baselines/mr_sparql_engine.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "common/clock.h"
#include "common/file_util.h"
#include "engine/operators.h"
#include "mapreduce/record.h"
#include "sparql/parser.h"

namespace s2rdf::baselines {

namespace {

using mapreduce::Record;
using rdf::TermId;
using sparql::PatternTerm;
using sparql::TriplePattern;

// A materialized solution relation: a record file whose record values
// are term ids aligned to `schema`.
struct Relation {
  std::string path;
  std::vector<std::string> schema;
  uint64_t rows = 0;
};

std::vector<std::string> SharedVars(const std::vector<std::string>& a,
                                    const std::vector<std::string>& b) {
  std::vector<std::string> shared;
  for (const std::string& v : a) {
    if (std::find(b.begin(), b.end(), v) != b.end()) shared.push_back(v);
  }
  return shared;
}

// Extracts the solution relation of one triple pattern by a full scan of
// the (deduplicated) dataset — what a SHARD/PigSPARQL map phase does.
StatusOr<Relation> MaterializePattern(const rdf::Graph& graph,
                                      const TriplePattern& tp,
                                      const std::string& path) {
  Relation rel;
  rel.path = path;
  const rdf::Dictionary& dict = graph.dictionary();

  // Resolve bound positions; an absent constant matches nothing.
  std::optional<TermId> want_s;
  std::optional<TermId> want_p;
  std::optional<TermId> want_o;
  bool impossible = false;
  auto resolve = [&](const PatternTerm& term, std::optional<TermId>* out) {
    if (term.is_variable()) return;
    std::optional<TermId> id = dict.Find(term.value);
    if (!id.has_value()) impossible = true;
    *out = id;
  };
  resolve(tp.subject, &want_s);
  resolve(tp.predicate, &want_p);
  resolve(tp.object, &want_o);

  // Distinct variables in s/p/o order.
  std::vector<std::pair<std::string, int>> var_positions;  // var, 0/1/2.
  const PatternTerm* terms[3] = {&tp.subject, &tp.predicate, &tp.object};
  for (int i = 0; i < 3; ++i) {
    if (!terms[i]->is_variable()) continue;
    bool seen = false;
    for (const auto& [v, pos] : var_positions) {
      if (v == terms[i]->value) seen = true;
    }
    if (!seen) var_positions.emplace_back(terms[i]->value, i);
  }
  for (const auto& [v, pos] : var_positions) rel.schema.push_back(v);

  std::vector<Record> records;
  if (!impossible) {
    std::unordered_set<rdf::Triple, rdf::TripleHash> seen_triples;
    for (const rdf::Triple& t : graph.triples()) {
      if (!seen_triples.insert(t).second) continue;
      if (want_s.has_value() && t.subject != *want_s) continue;
      if (want_p.has_value() && t.predicate != *want_p) continue;
      if (want_o.has_value() && t.object != *want_o) continue;
      const TermId values[3] = {t.subject, t.predicate, t.object};
      // Repeated variables must agree.
      bool consistent = true;
      for (int i = 0; i < 3 && consistent; ++i) {
        for (int j = i + 1; j < 3; ++j) {
          if (terms[i]->is_variable() && terms[j]->is_variable() &&
              terms[i]->value == terms[j]->value &&
              values[i] != values[j]) {
            consistent = false;
            break;
          }
        }
      }
      if (!consistent) continue;
      Record record;
      for (const auto& [v, pos] : var_positions) {
        record.value.push_back(values[pos]);
      }
      records.push_back(std::move(record));
    }
  }
  rel.rows = records.size();
  S2RDF_RETURN_IF_ERROR(mapreduce::WriteRecordFile(path, records));
  return rel;
}

// Runs one n-ary repartition-join job over `inputs` on `join_vars`
// (every input's schema contains all join vars; empty = cross join).
StatusOr<Relation> JoinJob(const MrEngineOptions& options,
                           const std::vector<Relation>& inputs,
                           const std::vector<std::string>& join_vars,
                           const std::string& out_path, uint64_t job_seq,
                           mapreduce::JobMetrics* total_metrics) {
  // Tag each input's records (value = [tag, bindings...]).
  std::vector<std::string> tagged_paths;
  std::vector<std::vector<std::string>> schemas;
  for (size_t tag = 0; tag < inputs.size(); ++tag) {
    S2RDF_ASSIGN_OR_RETURN(std::vector<Record> records,
                           mapreduce::ReadRecordFile(inputs[tag].path));
    for (Record& r : records) {
      r.value.insert(r.value.begin(), static_cast<uint32_t>(tag));
    }
    std::string path = options.work_dir + "/job" + std::to_string(job_seq) +
                       "_in" + std::to_string(tag) + ".rec";
    S2RDF_RETURN_IF_ERROR(mapreduce::WriteRecordFile(path, records));
    tagged_paths.push_back(path);
    schemas.push_back(inputs[tag].schema);
  }

  // Output schema: union of input schemas in tag order.
  Relation out;
  out.path = out_path;
  for (const auto& schema : schemas) {
    for (const std::string& v : schema) {
      if (std::find(out.schema.begin(), out.schema.end(), v) ==
          out.schema.end()) {
        out.schema.push_back(v);
      }
    }
  }

  // Per-tag join-key positions and output positions.
  std::vector<std::vector<size_t>> key_positions(schemas.size());
  for (size_t tag = 0; tag < schemas.size(); ++tag) {
    for (const std::string& v : join_vars) {
      auto it = std::find(schemas[tag].begin(), schemas[tag].end(), v);
      if (it == schemas[tag].end()) {
        return InternalError("join variable missing from input schema: " + v);
      }
      key_positions[tag].push_back(
          static_cast<size_t>(it - schemas[tag].begin()));
    }
  }

  mapreduce::Mapper mapper = [&](const Record& input,
                                 std::vector<Record>* emit) {
    uint32_t tag = input.value[0];
    Record keyed = input;
    keyed.key.clear();
    for (size_t pos : key_positions[tag]) {
      keyed.key.push_back(input.value[1 + pos]);
    }
    emit->push_back(std::move(keyed));
  };

  const size_t out_width = out.schema.size();
  // Output-column index of each (tag, input column).
  std::vector<std::vector<size_t>> out_positions(schemas.size());
  for (size_t tag = 0; tag < schemas.size(); ++tag) {
    for (const std::string& v : schemas[tag]) {
      auto it = std::find(out.schema.begin(), out.schema.end(), v);
      out_positions[tag].push_back(
          static_cast<size_t>(it - out.schema.begin()));
    }
  }

  mapreduce::Reducer reducer = [&](const std::vector<uint32_t>& /*key*/,
                                   const std::vector<Record>& group,
                                   std::vector<Record>* emit) {
    // Split the group by tag.
    std::vector<std::vector<const Record*>> by_tag(schemas.size());
    for (const Record& r : group) by_tag[r.value[0]].push_back(&r);
    for (const auto& records : by_tag) {
      if (records.empty()) return;  // Inner join: some input has no rows.
    }
    // Cross product across tags with compatibility checks on all shared
    // variables (solution-mapping compatibility, Sec. 2.1).
    std::vector<std::vector<uint32_t>> partials;
    partials.emplace_back(out_width, rdf::kNullTermId);
    for (size_t tag = 0; tag < schemas.size(); ++tag) {
      std::vector<std::vector<uint32_t>> next;
      for (const auto& partial : partials) {
        for (const Record* r : by_tag[tag]) {
          bool compatible = true;
          std::vector<uint32_t> merged = partial;
          for (size_t c = 0; c < schemas[tag].size(); ++c) {
            uint32_t value = r->value[1 + c];
            uint32_t& slot = merged[out_positions[tag][c]];
            if (slot != rdf::kNullTermId && slot != value) {
              compatible = false;
              break;
            }
            slot = value;
          }
          if (compatible) next.push_back(std::move(merged));
        }
      }
      partials = std::move(next);
      if (partials.empty()) return;
    }
    for (auto& bindings : partials) {
      Record r;
      r.value = std::move(bindings);
      emit->push_back(std::move(r));
    }
  };

  mapreduce::JobConfig config;
  config.work_dir = options.work_dir;
  config.num_reducers = options.num_reducers;
  config.max_records_in_memory = options.max_records_in_memory;
  S2RDF_ASSIGN_OR_RETURN(
      mapreduce::JobMetrics metrics,
      mapreduce::RunJob(config, tagged_paths, mapper, reducer, out_path));
  *total_metrics += metrics;
  out.rows = metrics.reduce_output_records;
  for (const std::string& path : tagged_paths) {
    S2RDF_RETURN_IF_ERROR(RemoveFile(path));
  }
  return out;
}

StatusOr<rdf::Table> RelationToTable(const Relation& rel) {
  S2RDF_ASSIGN_OR_RETURN(std::vector<Record> records,
                         mapreduce::ReadRecordFile(rel.path));
  rdf::Table table(rel.schema);
  table.Reserve(records.size());
  for (const Record& r : records) table.AppendRow(r.value);
  return table;
}

}  // namespace

StatusOr<MrQueryResult> MrSparqlEngine::ExecuteBgp(
    const std::vector<TriplePattern>& bgp) const {
  auto start = MonotonicNow();
  if (bgp.empty()) return InvalidArgumentError("empty BGP");
  MrQueryResult result;

  // Materialize every pattern's relation (the extraction scans).
  std::vector<Relation> rels;
  for (size_t i = 0; i < bgp.size(); ++i) {
    S2RDF_ASSIGN_OR_RETURN(
        Relation rel,
        MaterializePattern(graph_, bgp[i],
                           options_.work_dir + "/tp" + std::to_string(i) +
                               ".rec"));
    rels.push_back(std::move(rel));
  }

  Relation current = rels[0];
  size_t pos = 1;
  uint64_t job_seq = 0;
  while (pos < rels.size()) {
    std::vector<Relation> group = {current};
    std::vector<std::string> join_vars =
        SharedVars(current.schema, rels[pos].schema);
    group.push_back(rels[pos]);
    ++pos;
    if (options_.planner == MrPlanner::kMultiJoin && !join_vars.empty()) {
      // PigSPARQL multi-join: pull in consecutive patterns that join on
      // the same single variable, processing them in one n-ary job.
      const std::string& v = join_vars[0];
      join_vars = {v};
      while (pos < rels.size() &&
             std::find(rels[pos].schema.begin(), rels[pos].schema.end(),
                       v) != rels[pos].schema.end()) {
        group.push_back(rels[pos]);
        ++pos;
      }
    }
    std::string out_path = options_.work_dir + "/join" +
                           std::to_string(job_seq) + ".rec";
    S2RDF_ASSIGN_OR_RETURN(
        current, JoinJob(options_, group, join_vars, out_path, job_seq,
                         &result.metrics));
    ++job_seq;
  }

  // SHARD counts one job per clause (extraction included); PigSPARQL's
  // multi-join runs one job per join group.
  result.jobs = options_.planner == MrPlanner::kClauseIteration
                    ? bgp.size()
                    : std::max<uint64_t>(job_seq, 1);

  S2RDF_ASSIGN_OR_RETURN(result.table, RelationToTable(current));
  result.wall_ms = MillisSince(start);
  return result;
}

StatusOr<MrQueryResult> MrSparqlEngine::Execute(
    std::string_view sparql) const {
  auto start = MonotonicNow();
  S2RDF_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql));
  if (!query.aggregates.empty() || !query.group_by.empty() ||
      !query.where.subqueries.empty() || !query.where.values.empty() ||
      query.form != sparql::QueryForm::kSelect) {
    return UnimplementedError(
        "baseline engines do not support SPARQL 1.1 aggregates or "
        "subqueries");
  }
  if (!query.where.optionals.empty() || !query.where.unions.empty()) {
    return UnimplementedError(
        "MapReduce baselines support plain BGP queries only");
  }
  S2RDF_ASSIGN_OR_RETURN(MrQueryResult result,
                         ExecuteBgp(query.where.triples));
  rdf::Table table = std::move(result.table);
  const rdf::Dictionary& dict = graph_.dictionary();
  for (const sparql::ExprPtr& filter : query.where.filters) {
    table = engine::Filter(table, *filter, dict, nullptr);
  }
  std::vector<std::string> projection =
      query.select_all ? query.where.AllVariables() : query.projection;
  table = engine::Project(table, projection);
  if (query.distinct) table = engine::Distinct(table, nullptr);
  if (!query.order_by.empty()) {
    table = engine::OrderBy(table, query.order_by, dict);
  }
  if (query.offset > 0 || query.limit != sparql::kNoLimit) {
    table = engine::Slice(table, query.offset, query.limit);
  }
  result.table = std::move(table);
  result.wall_ms = MillisSince(start);
  return result;
}

}  // namespace s2rdf::baselines
