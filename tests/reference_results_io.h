#ifndef S2RDF_TESTS_REFERENCE_RESULTS_IO_H_
#define S2RDF_TESTS_REFERENCE_RESULTS_IO_H_

#include <string>

#include "rdf/dictionary.h"
#include "rdf/table.h"

// Reference SPARQL result serializers: one row loop per format that
// decodes every cell, re-parses it with rdf::Term::Parse and renders it
// through per-term string temporaries. This is the straightforward
// formatter sparql/results_io.cc's single memoizing writer replaced; it
// defines the bytes (JSON, XML, CSV, TSV and ASK) that writer must
// reproduce, and results_io_test.cc compares the two byte for byte.

namespace s2rdf::reference {

std::string ResultsToJson(const rdf::Table& table,
                          const rdf::Dictionary& dict);
std::string ResultsToXml(const rdf::Table& table,
                         const rdf::Dictionary& dict);
std::string ResultsToCsv(const rdf::Table& table,
                         const rdf::Dictionary& dict);
std::string ResultsToTsv(const rdf::Table& table,
                         const rdf::Dictionary& dict);

std::string AskToJson(bool result);
std::string AskToXml(bool result);

}  // namespace s2rdf::reference

#endif  // S2RDF_TESTS_REFERENCE_RESULTS_IO_H_
