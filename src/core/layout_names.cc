#include "core/layout_names.h"

#include <charconv>

namespace s2rdf::core {

std::string TriplesTableName() { return "triples"; }

std::string VpTableName(rdf::TermId predicate) {
  return kVpTablePrefix + std::to_string(predicate);
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

std::optional<rdf::TermId> IdAfter(std::string_view prefix,
                                   std::string_view name) {
  if (!name.starts_with(prefix)) return std::nullopt;
  const char* end = name.data() + name.size();
  rdf::TermId id = 0;
  const auto [last, error] =
      std::from_chars(name.data() + prefix.size(), end, id);
  if (error != std::errc() || last != end) return std::nullopt;
  return id;
}

}  // namespace s2rdf::core
