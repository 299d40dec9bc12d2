#ifndef S2RDF_SPARQL_PARSER_H_
#define S2RDF_SPARQL_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "sparql/ast.h"

// Recursive-descent parser for the supported SPARQL fragment:
//
//   PREFIX declarations; the query forms
//     SELECT [DISTINCT|REDUCED] (* | vars and (AGG(...) AS ?v)) WHERE {...}
//     ASK [WHERE] { ... }
//     CONSTRUCT { template } WHERE { ... }
//     DESCRIBE (IRIs | vars) [WHERE { ... }];
//   basic graph patterns (with ';' and ',' abbreviations and the 'a'
//   keyword); FILTER with comparisons, &&/||/!, BOUND, REGEX; OPTIONAL;
//   UNION; nested { SELECT ... } subqueries; VALUES blocks; the
//   aggregates COUNT, SUM, AVG, MIN, MAX and SAMPLE with GROUP BY (no
//   HAVING); ORDER BY; LIMIT; OFFSET.
//
// That is the SPARQL 1.0 surface of the paper's prototype (Sec. 6.1)
// plus the query forms, aggregates and subqueries it left for future
// work.

namespace s2rdf::sparql {

// Parses `text` into a Query. Prefixed names are expanded using the
// query's PREFIX declarations; numeric and boolean literals are
// canonicalized to typed xsd literals.
StatusOr<Query> ParseQuery(std::string_view text);

}  // namespace s2rdf::sparql

#endif  // S2RDF_SPARQL_PARSER_H_
