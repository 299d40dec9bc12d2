#ifndef S2RDF_STORAGE_ENCODING_H_
#define S2RDF_STORAGE_ENCODING_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

// Lightweight columnar encodings standing in for the Parquet +
// snappy/dictionary/RLE representation the paper persists to HDFS. A
// column of 32-bit term ids is encoded with whichever of three codecs is
// smallest for that column:
//   kPlainVarint — LEB128 varints,
//   kRle         — (value, run-length) varint pairs,
//   kDeltaVarint — zigzag deltas (wins on sorted id columns).
// The codec tag is the first byte of the block; ties go to plain, then
// RLE.
//
// Size, then write: PlanColumn counts all three codecs' sizes in one pass
// and picks the winner, and WriteColumn encodes only the winner into a
// caller's buffer of exactly that size. A commit plans every blob first,
// lays the blobs out in its segment and writes each in place
// (storage/table_file.h), so no blob is built twice or copied.

namespace s2rdf::storage {

// Appends `value` to `out` as a LEB128 varint.
void PutVarint64(std::string* out, uint64_t value);

// Writes `value` as a LEB128 varint at `out`; returns the byte after it.
inline char* PutVarint64(char* out, uint64_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<char>((value & 0x7f) | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<char>(value);
  return out;
}

// Bytes of `value` as a LEB128 varint: 1 to 10.
inline size_t VarintLength(uint64_t value) {
  return (static_cast<size_t>(std::bit_width(value | 1)) + 6) / 7;
}

// Reads a varint at `*pos`; advances `*pos`. Returns false on truncation.
bool GetVarint64(std::string_view data, size_t* pos, uint64_t* value);

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

enum class ColumnCodec : uint8_t {
  kPlainVarint = 0,
  kRle = 1,
  kDeltaVarint = 2,
};

// How a column is encoded: the smallest codec and the exact size of its
// block (codec tag + row count + payload).
struct ColumnPlan {
  ColumnCodec codec = ColumnCodec::kPlainVarint;
  size_t block_bytes = 0;
};

// One pass over `column` that counts every codec's size.
ColumnPlan PlanColumn(const std::vector<uint32_t>& column);

// Writes the block `plan` (PlanColumn(column)) describes into `out`,
// which has room for plan.block_bytes bytes; returns the byte after it.
char* WriteColumn(const std::vector<uint32_t>& column, const ColumnPlan& plan,
                  char* out);

// Encodes `column`, choosing the smallest codec. The block is
// self-describing (codec tag + row count + payload).
std::string EncodeColumn(const std::vector<uint32_t>& column);

// Decodes a block produced by EncodeColumn.
Status DecodeColumn(std::string_view block, std::vector<uint32_t>* column);

// --- Checksummed chunks (S2TB v2) ---------------------------------------
//
// A checksummed chunk is an EncodeColumn block followed by the FNV-1a64
// of the block bytes (8 bytes, little-endian). Per-chunk checksums let a
// reader localize corruption to one column of one table instead of only
// knowing "the file is bad".

// Bytes of the checksum that ends a chunk.
inline constexpr size_t kChunkChecksumBytes = 8;

// WriteColumn, then the block's checksum: plan.block_bytes +
// kChunkChecksumBytes bytes. Returns the byte after the chunk.
char* WriteColumnChecksummed(const std::vector<uint32_t>& column,
                             const ColumnPlan& plan, char* out);

// Verifies and decodes a checksummed chunk. A checksum mismatch returns
// kInvalidArgument mentioning "chunk checksum".
Status DecodeColumnChecksummed(std::string_view chunk,
                               std::vector<uint32_t>* column);

// Checksum-only validation (no decode) — cheap integrity scans.
Status VerifyColumnChecksum(std::string_view chunk);

}  // namespace s2rdf::storage

#endif  // S2RDF_STORAGE_ENCODING_H_
