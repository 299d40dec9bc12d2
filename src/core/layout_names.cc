#include "core/layout_names.h"

namespace s2rdf::core {

std::string TriplesTableName() { return "triples"; }

std::string VpTableName(rdf::TermId predicate) {
  return "vp_" + std::to_string(predicate);
}

std::string ExtVpTableName(Correlation corr, rdf::TermId p1, rdf::TermId p2) {
  return ExtVpTablePrefix(corr, p1) + std::to_string(p2);
}

std::string ExtVpTablePrefix(Correlation corr, rdf::TermId p1) {
  std::string prefix = "extvp_";
  prefix += CorrelationName(corr);
  prefix += '_';
  prefix += std::to_string(p1);
  prefix += '_';
  return prefix;
}

std::string PropertyTableName() { return "pt"; }

std::string PropertyAuxTableName(rdf::TermId predicate) {
  return "pt_aux_" + std::to_string(predicate);
}

}  // namespace s2rdf::core
