#include "core/layout_names.h"

namespace s2rdf::core {

std::string TriplesTableName() { return "triples"; }

std::string VpTableName(rdf::TermId predicate) {
  return "vp_" + std::to_string(predicate);
}

std::string ExtVpTableName(Correlation corr, rdf::TermId p1, rdf::TermId p2) {
  std::string name = "extvp_";
  name += CorrelationName(corr);
  name += '_';
  name += std::to_string(p1);
  name += '_';
  name += std::to_string(p2);
  return name;
}

std::string PropertyTableName() { return "pt"; }

std::string PropertyAuxTableName(rdf::TermId predicate) {
  return "pt_aux_" + std::to_string(predicate);
}

}  // namespace s2rdf::core
