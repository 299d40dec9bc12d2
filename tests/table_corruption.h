#ifndef S2RDF_TESTS_TABLE_CORRUPTION_H_
#define S2RDF_TESTS_TABLE_CORRUPTION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "storage/catalog.h"

// The one way tests damage a stored table: find the table's byte range
// in its segment file through the catalog's statistics, then rewrite
// bytes inside that range only. Every other table in the segment keeps
// its bytes, so a test can assert that exactly the damaged table is
// quarantined.

namespace s2rdf::testing {

// Where a committed table's S2TB blob lies.
struct TableRange {
  std::string path;  // The segment file.
  uint64_t offset = 0;
  uint64_t bytes = 0;
};

// The committed byte range of table `name`; nullopt when the table is not
// on disk (stats-only, staged, or an in-memory catalog).
std::optional<TableRange> FindTableRange(const storage::Catalog& catalog,
                                         const std::string& name);

// The committed byte ranges of the dictionary blobs, in id order.
std::vector<TableRange> FindDictionaryRanges(const storage::Catalog& catalog);

// Flips the bits of `mask` in byte `pos` of table `name`'s blob (its
// middle byte by default). False when the table is not on disk or `pos`
// lies outside the blob.
bool CorruptTable(const storage::Catalog& catalog, const std::string& name,
                  std::optional<uint64_t> pos = std::nullopt,
                  uint8_t mask = 0x01);

// Loads the manifest of the store in `dir` and corrupts the middle byte
// of every committed table whose name starts with `prefix`; returns how
// many were damaged.
int CorruptTables(const std::string& dir, const std::string& prefix);

}  // namespace s2rdf::testing

#endif  // S2RDF_TESTS_TABLE_CORRUPTION_H_
