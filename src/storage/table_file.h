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

// --- Patches ------------------------------------------------------------
//
// A committed table is a base blob plus a short chain of patch blobs
// (storage/catalog.h). A patch is an ordinary S2TB table of the rows one
// commit inserted: its first column gives each row's index in the table
// after that commit (ascending), its other columns are the table's. The
// indices are logical, so a patch's bytes never depend on where it lies.

// The patch holding the rows of `table` at the ascending indices `rows`.
rdf::Table MakePatch(const rdf::Table& table,
                     const std::vector<uint32_t>& rows);

// The row indices of the patch blob `blob`: verified like
// DeserializeTable, with only the first column decoded.
StatusOr<std::vector<uint32_t>> PatchRows(std::string_view blob);

// Inserts the rows of `patch` into `table` at the indices its first column
// gives. kInvalidArgument when the patch does not fit the table: another
// width, or indices that do not ascend or run past the merged table.
Status ApplyPatch(const rdf::Table& patch, rdf::Table* table);

// The rows two consecutive commits inserted, as ascending indices into
// the table after the second: `older` indexes the table after the first
// commit, `newer` the table after the second.
std::vector<uint32_t> MergeInsertedRows(const std::vector<uint32_t>& older,
                                        const std::vector<uint32_t>& newer);

}  // namespace s2rdf::storage

#endif  // S2RDF_STORAGE_TABLE_FILE_H_
