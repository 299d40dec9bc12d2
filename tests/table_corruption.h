#ifndef S2RDF_TESTS_TABLE_CORRUPTION_H_
#define S2RDF_TESTS_TABLE_CORRUPTION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "storage/catalog.h"

// The one way tests damage a stored table: find the byte range of one of
// the table's extents — its base blob or one of its patches — in its
// segment file through the catalog's statistics, then rewrite bytes
// inside that range only. Every other blob in the segment keeps its
// bytes, so a test can assert that exactly the damaged table is
// quarantined.

namespace s2rdf::testing {

// Where one extent of a committed table (an S2TB blob) lies.
struct TableRange {
  std::string path;  // The segment file.
  uint64_t offset = 0;
  uint64_t bytes = 0;
};

// The committed byte range of extent `extent` of table `name` (0 is its
// base blob, 1 its oldest patch, ...); nullopt when the table is not on
// disk (stats-only, staged, or an in-memory catalog) or has no such
// extent.
std::optional<TableRange> FindTableRange(const storage::Catalog& catalog,
                                         const std::string& name,
                                         size_t extent = 0);

// How many extents table `name` has on disk: 0 when it is not on disk.
size_t CountExtents(const storage::Catalog& catalog, const std::string& name);

// The committed byte ranges of the dictionary blobs, in id order.
std::vector<TableRange> FindDictionaryRanges(const storage::Catalog& catalog);

// Flips the bits of `mask` in byte `pos` of extent `extent` of table
// `name` (the middle byte of its base blob by default). False when the
// extent is not on disk or `pos` lies outside it.
bool CorruptTable(const storage::Catalog& catalog, const std::string& name,
                  std::optional<uint64_t> pos = std::nullopt,
                  uint8_t mask = 0x01, size_t extent = 0);

// Loads the manifest of the store in `dir` and corrupts the middle byte
// of every committed table whose name starts with `prefix`; returns how
// many were damaged.
int CorruptTables(const std::string& dir, const std::string& prefix);

}  // namespace s2rdf::testing

#endif  // S2RDF_TESTS_TABLE_CORRUPTION_H_
