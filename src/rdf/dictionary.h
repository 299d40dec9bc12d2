#ifndef S2RDF_RDF_DICTIONARY_H_
#define S2RDF_RDF_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

// Dictionary encoding of RDF terms. All layouts (triples table, VP, ExtVP,
// property tables, permutation indexes) operate on dense 32-bit term ids;
// the dictionary is the single source of truth mapping ids back to the
// canonical N-Triples strings. This mirrors the dictionary encoding that
// Spark SQL's Parquet representation applies in the paper's setup.

namespace s2rdf::rdf {

// Dense id of an interned term. Id 0 is a valid term id.
using TermId = uint32_t;

// Sentinel used by the engine for "unbound" (e.g. OPTIONAL non-matches).
inline constexpr TermId kNullTermId = 0xffffffffu;

// Interns canonical term strings and assigns dense ids in insertion
// order. Encode/Find/Decode are thread-safe (reader/writer locked) so
// concurrent queries can mint aggregate literals and decode results
// against one shared instance; moving a Dictionary is NOT safe while
// other threads use either operand.
class Dictionary {
 public:
  Dictionary() = default;

  // Move-only: the id map references heap nodes owned by this instance.
  // Moves require external exclusion (documented above), so they are
  // exempt from the lock analysis.
  Dictionary(Dictionary&& other) noexcept S2RDF_NO_THREAD_SAFETY_ANALYSIS
      : ids_(std::move(other.ids_)), by_id_(std::move(other.by_id_)) {}
  Dictionary& operator=(Dictionary&& other) noexcept
      S2RDF_NO_THREAD_SAFETY_ANALYSIS {
    if (this != &other) {
      ids_ = std::move(other.ids_);
      by_id_ = std::move(other.by_id_);
    }
    return *this;
  }
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  // Returns the id for `canonical`, interning it if new.
  TermId Encode(std::string_view canonical);

  // Returns the id if `canonical` is already interned.
  std::optional<TermId> Find(std::string_view canonical) const;

  // Returns the canonical string for `id`. `id` must be valid.
  const std::string& Decode(TermId id) const;

  size_t size() const {
    ReaderLock lock(&mu_);
    return by_id_.size();
  }

  // Serializes the terms with ids in [first, end) (an `end` past size()
  // means size()) as one checksummed blob: "S2DICT1\n", the FNV-1a64 of
  // the payload as 16 lowercase hex digits, "\n", then the payload (the
  // term count, then each term length-prefixed). Ids are append-only, so
  // a store commits one blob per commit: the terms minted since the
  // previous one.
  std::string Serialize(TermId first = 0, TermId end = kNullTermId) const;

  // Appends the terms of one Serialize blob; they take the next ids in
  // order. InvalidArgument naming the damage when the envelope, checksum
  // or payload does not verify or a term is already interned (the
  // dictionary then holds the terms appended before it).
  Status Append(std::string_view blob);

 private:
  // Guards ids_/by_id_: Encode takes it exclusively, lookups shared.
  mutable SharedMutex mu_;
  // Node-stable map; by_id_ points into the map's keys.
  std::unordered_map<std::string, TermId> ids_ S2RDF_GUARDED_BY(mu_);
  std::vector<const std::string*> by_id_ S2RDF_GUARDED_BY(mu_);
};

}  // namespace s2rdf::rdf

#endif  // S2RDF_RDF_DICTIONARY_H_
