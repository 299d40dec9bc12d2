#include "tests/reference_encoder.h"

#include <cstring>

#include "common/hash.h"
#include "storage/encoding.h"

// The bodies below are the storage writer as it stood before it sized
// blobs in one pass and wrote them in place, kept verbatim so the
// reference does not drift with the code it checks.

namespace s2rdf::reference {

using storage::ColumnCodec;
using storage::PutVarint64;
using storage::ZigZagEncode;

std::string EncodePlain(const std::vector<uint32_t>& column) {
  std::string out;
  out.reserve(column.size() * 2);
  for (uint32_t v : column) PutVarint64(&out, v);
  return out;
}

std::string EncodeRle(const std::vector<uint32_t>& column) {
  std::string out;
  size_t i = 0;
  while (i < column.size()) {
    size_t run = 1;
    while (i + run < column.size() && column[i + run] == column[i]) ++run;
    PutVarint64(&out, column[i]);
    PutVarint64(&out, run);
    i += run;
  }
  return out;
}

std::string EncodeDelta(const std::vector<uint32_t>& column) {
  std::string out;
  out.reserve(column.size());
  int64_t prev = 0;
  for (uint32_t v : column) {
    PutVarint64(&out, ZigZagEncode(static_cast<int64_t>(v) - prev));
    prev = static_cast<int64_t>(v);
  }
  return out;
}

std::string EncodeColumn(const std::vector<uint32_t>& column) {
  std::string plain = EncodePlain(column);
  std::string rle = EncodeRle(column);
  std::string delta = EncodeDelta(column);

  ColumnCodec codec = ColumnCodec::kPlainVarint;
  const std::string* payload = &plain;
  if (rle.size() < payload->size()) {
    codec = ColumnCodec::kRle;
    payload = &rle;
  }
  if (delta.size() < payload->size()) {
    codec = ColumnCodec::kDeltaVarint;
    payload = &delta;
  }

  std::string block;
  block.push_back(static_cast<char>(codec));
  PutVarint64(&block, column.size());
  block += *payload;
  return block;
}

namespace {

constexpr char kMagic[4] = {'S', '2', 'T', 'B'};
constexpr uint32_t kVersion = 2;
constexpr size_t kChecksumBytes = 8;

std::string EncodeColumnChecksummed(const std::vector<uint32_t>& column) {
  std::string chunk = EncodeColumn(column);
  uint64_t checksum = Fnv1a64(chunk);
  char trailer[kChecksumBytes];
  std::memcpy(trailer, &checksum, kChecksumBytes);
  chunk.append(trailer, kChecksumBytes);
  return chunk;
}

}  // namespace

std::string SerializeTable(const rdf::Table& table) {
  std::string out;
  out.append(kMagic, 4);
  char version[4];
  std::memcpy(version, &kVersion, 4);
  out.append(version, 4);
  PutVarint64(&out, table.NumColumns());
  PutVarint64(&out, table.NumRows());
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    const std::string& name = table.column_names()[c];
    PutVarint64(&out, name.size());
    out += name;
    std::string chunk = EncodeColumnChecksummed(table.Column(c));
    PutVarint64(&out, chunk.size());
    out += chunk;
  }
  uint64_t checksum = Fnv1a64(out);
  char trailer[kChecksumBytes];
  std::memcpy(trailer, &checksum, kChecksumBytes);
  out.append(trailer, kChecksumBytes);
  return out;
}

}  // namespace s2rdf::reference
