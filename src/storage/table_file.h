#ifndef S2RDF_STORAGE_TABLE_FILE_H_
#define S2RDF_STORAGE_TABLE_FILE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/table.h"
#include "storage/encoding.h"

// Single-table binary format ("S2TB"): the project's Parquet analogue.
// Blobs are stored back to back in the catalog's segment files, one
// blob per table, with no framing of their own: every byte lies under
// its own table's checksums. Layout (version 2, the only version read
// or written):
//   magic "S2TB" | version u32 | ncols varint | nrows varint
//   per column: name (varint length + bytes) | chunk (varint length +
//   WriteColumnChecksummed bytes — block + its own FNV-1a64)
//   trailer: FNV-1a64 checksum of everything before it.
// The per-chunk checksums localize corruption to one column; the trailer
// checksum still guards the whole blob.
//
// A blob is written in two steps: PlanTableBlob sizes it exactly (one
// counting pass per column, which also picks each column's codec), and
// WriteTableBlob encodes it into a buffer of that size. Catalog::
// CommitBatch plans every blob of a commit, lays them out in its segment
// and writes them in place, in parallel; SerializeTable is the two steps
// into a string of its own.

namespace s2rdf::storage {

// The exact layout of one table's blob: each column's codec and block
// size, and the blob's size.
struct TableBlobPlan {
  std::vector<ColumnPlan> columns;
  size_t bytes = 0;
};

TableBlobPlan PlanTableBlob(const rdf::Table& table);

// Writes the blob `plan` (PlanTableBlob(table)) describes into `out`,
// which has room for exactly plan.bytes bytes.
void WriteTableBlob(const rdf::Table& table, const TableBlobPlan& plan,
                    char* out);

// Serializes `table` into the S2TB byte format.
std::string SerializeTable(const rdf::Table& table);

// Parses an S2TB blob straight into columns (verifies the file checksum
// and the per-column chunk checksums; errors name the corrupt column).
StatusOr<rdf::Table> DeserializeTable(std::string_view blob);

// Integrity check without materializing the table: header, trailer
// checksum and every chunk checksum. kInvalidArgument describes where
// the corruption sits.
Status VerifyTableBlob(std::string_view blob);

}  // namespace s2rdf::storage

#endif  // S2RDF_STORAGE_TABLE_FILE_H_
