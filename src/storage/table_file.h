#ifndef S2RDF_STORAGE_TABLE_FILE_H_
#define S2RDF_STORAGE_TABLE_FILE_H_

#include <string>

#include "common/status.h"
#include "rdf/table.h"

// Single-table binary format ("S2TB"): the project's Parquet analogue.
// Blobs are stored back to back in the catalog's segment files, one
// blob per table, with no framing of their own: every byte lies under
// its own table's checksums. Layout (version 2, the only version read
// or written):
//   magic "S2TB" | version u32 | ncols varint | nrows varint
//   per column: name (varint length + bytes) | chunk (varint length +
//   EncodeColumnChecksummed bytes — block + its own FNV-1a64)
//   trailer: FNV-1a64 checksum of everything before it.
// The per-chunk checksums localize corruption to one column; the trailer
// checksum still guards the whole blob.

namespace s2rdf::storage {

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
