#ifndef S2RDF_CORE_LAYOUT_NAMES_H_
#define S2RDF_CORE_LAYOUT_NAMES_H_

#include <compare>
#include <optional>
#include <string>
#include <string_view>

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

// Column roles of ExtVP^corr_p1|p2 = VP_p1 ⋉ VP_p2 (Sec. 5.2): the rows
// of VP_p1 whose column `left` (0 = s, 1 = o) occurs in column `right`
// of VP_p2.
struct CorrelationRoles {
  Correlation corr;
  const char* name;  // As table names spell it.
  int left;
  int right;
};

// The roles of every correlation, in enum order: the one table each
// ExtVP builder, the bitmap store and ingest read.
inline constexpr CorrelationRoles kCorrelationRoles[] = {
    {Correlation::kSS, "ss", 0, 0},
    {Correlation::kOS, "os", 1, 0},
    {Correlation::kSO, "so", 0, 1},
};

inline constexpr const CorrelationRoles& RolesOf(Correlation corr) {
  return kCorrelationRoles[static_cast<int>(corr)];
}

inline const char* CorrelationName(Correlation c) { return RolesOf(c).name; }

// One reduction ExtVP^corr_p1|p2; ordered, so a set of them is the set of
// distinct reductions.
struct ExtVpPair {
  Correlation corr;
  rdf::TermId p1;
  rdf::TermId p2;
  auto operator<=>(const ExtVpPair&) const = default;
};

// Stats-only marker entry: present when the store has ExtVP, built
// eagerly or lazily. Without it a missing ExtVP entry means "not built",
// not "empty" (SF = 0).
inline constexpr char kExtVpMarker[] = "meta_extvp";

// What the name of every VP table starts with, and only theirs.
inline constexpr char kVpTablePrefix[] = "vp_";

std::string TriplesTableName();
std::string VpTableName(rdf::TermId predicate);
std::string ExtVpTableName(Correlation corr, rdf::TermId p1, rdf::TermId p2);
// "extvp_<corr>_<p1>_": what the names of every reduction of p1 under
// `corr` start with, and only theirs.
std::string ExtVpTablePrefix(Correlation corr, rdf::TermId p1);
std::string PropertyTableName();
std::string PropertyAuxTableName(rdf::TermId predicate);

// The term id that ends `name` after `prefix` (12 for "vp_" and
// "vp_12"); nullopt unless `name` is `prefix` followed by an id alone.
std::optional<rdf::TermId> IdAfter(std::string_view prefix,
                                   std::string_view name);

}  // namespace s2rdf::core

#endif  // S2RDF_CORE_LAYOUT_NAMES_H_
