#ifndef S2RDF_SPARQL_RESULTS_IO_H_
#define S2RDF_SPARQL_RESULTS_IO_H_

#include <string>

#include "rdf/dictionary.h"
#include "rdf/table.h"

// W3C SPARQL query-result serializers: the interchange formats a SPARQL
// endpoint speaks. Implemented:
//   - SPARQL 1.1 Query Results JSON Format,
//   - SPARQL Query Results XML Format,
//   - CSV and TSV (RFC 4180-style CSV; TSV uses N-Triples term syntax).
// Input is a solution table (columns = variables, cells = dictionary
// ids; kNullTermId = unbound) plus the dictionary.
//
// One writer and one row loop serve all four formats. Per call it
// escapes each column name once and appends every row to one buffer.
// JSON, XML and CSV cells go through a per-call memo from term id to the
// cell's first rendering in that buffer, so each distinct id is decoded
// (one dictionary lock) and rendered once, straight from its canonical
// N-Triples string, however many rows repeat it. TSV cells are the
// canonical strings themselves and are copied as they are.

namespace s2rdf::sparql {

enum class ResultFormat { kJson, kXml, kCsv, kTsv };

// Serializes `table` in `format`.
std::string WriteResults(const rdf::Table& table,
                         const rdf::Dictionary& dict, ResultFormat format);

// WriteResults in one fixed format.
std::string ResultsToJson(const rdf::Table& table,
                          const rdf::Dictionary& dict);
std::string ResultsToXml(const rdf::Table& table,
                         const rdf::Dictionary& dict);
std::string ResultsToCsv(const rdf::Table& table,
                         const rdf::Dictionary& dict);
std::string ResultsToTsv(const rdf::Table& table,
                         const rdf::Dictionary& dict);

// ASK results.
std::string AskToJson(bool result);
std::string AskToXml(bool result);

}  // namespace s2rdf::sparql

#endif  // S2RDF_SPARQL_RESULTS_IO_H_
