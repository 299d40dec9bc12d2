#include "baselines/h2rdf_engine.h"

#include <chrono>

#include "common/clock.h"
#include "sparql/parser.h"

namespace s2rdf::baselines {

H2RdfEngine::H2RdfEngine(const rdf::Graph* graph, H2RdfOptions options)
    : graph_(*graph),
      options_(std::move(options)),
      store_(*graph),
      centralized_(&store_, &graph->dictionary()),
      mapreduce_(graph, options_.mr) {}

StatusOr<uint64_t> H2RdfEngine::EstimateInput(
    std::string_view sparql) const {
  S2RDF_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql));
  const rdf::Dictionary& dict = graph_.dictionary();
  uint64_t worst = 0;
  for (const sparql::TriplePattern& tp : query.where.triples) {
    IndexPattern pattern;
    auto resolve = [&](const sparql::PatternTerm& term,
                       std::optional<rdf::TermId>* slot) {
      if (term.is_variable()) return;
      *slot = dict.Find(term.value).value_or(rdf::kNullTermId);
    };
    resolve(tp.subject, &pattern.subject);
    resolve(tp.predicate, &pattern.predicate);
    resolve(tp.object, &pattern.object);
    worst = std::max(worst, store_.CountMatches(pattern));
  }
  return worst;
}

StatusOr<H2RdfResult> H2RdfEngine::Execute(std::string_view sparql) const {
  auto start = MonotonicNow();
  S2RDF_ASSIGN_OR_RETURN(uint64_t estimate, EstimateInput(sparql));
  H2RdfResult result;
  if (estimate <= options_.centralized_input_limit) {
    S2RDF_ASSIGN_OR_RETURN(CentralizedResult central,
                           centralized_.Execute(sparql));
    result.table = std::move(central.table);
    result.centralized = true;
  } else {
    S2RDF_ASSIGN_OR_RETURN(MrQueryResult mr, mapreduce_.Execute(sparql));
    result.table = std::move(mr.table);
    result.centralized = false;
    result.jobs = mr.jobs;
  }
  result.wall_ms = MillisSince(start);
  return result;
}

}  // namespace s2rdf::baselines
