#ifndef S2RDF_CORE_LAYOUT_NAMES_H_
#define S2RDF_CORE_LAYOUT_NAMES_H_

#include <string>

#include "rdf/dictionary.h"

// Catalog naming scheme for the relational layouts of Sec. 4/5. A
// table's name is built from term ids alone, so naming needs no
// dictionary and a name never changes once its ids are minted:
//   triples                 — the triples table TT(s, p, o)
//   vp_<p>                  — VP_p(s, o), p the predicate's term id
//   extvp_<corr>_<p1>_<p2>  — ExtVP^corr_p1|p2, corr one of ss / os / so
//   pt / pt_aux_<p>         — property table + auxiliary tables
//   meta_extvp              — marker: the store has ExtVP (eager or lazy)
// Manifests, EXPLAIN and the generated SQL show these names; decode an
// id with the store's dictionary to see the predicate behind it.

namespace s2rdf::core {

// The three precomputed correlation directions (OO is intentionally not
// precomputed — Sec. 5.2 discusses why).
enum class Correlation { kSS, kOS, kSO };

inline const char* CorrelationName(Correlation c) {
  switch (c) {
    case Correlation::kSS:
      return "ss";
    case Correlation::kOS:
      return "os";
    case Correlation::kSO:
      return "so";
  }
  return "??";
}

// Stats-only marker entry: present when the store has ExtVP, built
// eagerly or lazily. Without it a missing ExtVP entry means "not built",
// not "empty" (SF = 0).
inline constexpr char kExtVpMarker[] = "meta_extvp";

std::string TriplesTableName();
std::string VpTableName(rdf::TermId predicate);
std::string ExtVpTableName(Correlation corr, rdf::TermId p1, rdf::TermId p2);
std::string PropertyTableName();
std::string PropertyAuxTableName(rdf::TermId predicate);

}  // namespace s2rdf::core

#endif  // S2RDF_CORE_LAYOUT_NAMES_H_
