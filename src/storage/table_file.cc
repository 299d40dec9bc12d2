#include "storage/table_file.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/hash.h"
#include "storage/encoding.h"

namespace s2rdf::storage {

namespace {

constexpr char kMagic[4] = {'S', '2', 'T', 'B'};
// Version 2 carries a checksum per column chunk.
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderBytes = 8;   // magic + version
constexpr size_t kTrailerBytes = 8;  // FNV-1a64 of the rest
// Smallest well-formed file: header, one-byte ncols/nrows varints,
// trailer.
constexpr size_t kMinFileBytes = kHeaderBytes + 2 + kTrailerBytes;

// Walks a payload verifying each column's chunk checksum without
// decoding, to pin file-level corruption onto one column. The walk is
// fully bounds-checked: the payload itself may be damaged.
Status LocalizeCorruption(std::string_view payload) {
  size_t pos = kHeaderBytes;
  uint64_t ncols = 0;
  uint64_t nrows = 0;
  if (!GetVarint64(payload, &pos, &ncols) ||
      !GetVarint64(payload, &pos, &nrows)) {
    return InvalidArgumentError("table file corrupt (header truncated)");
  }
  for (uint64_t c = 0; c < ncols; ++c) {
    uint64_t name_len = 0;
    if (!GetVarint64(payload, &pos, &name_len) ||
        name_len > payload.size() - pos) {
      return InvalidArgumentError("table file corrupt (column " +
                                  std::to_string(c) + " name truncated)");
    }
    std::string name(payload.substr(pos, name_len));
    pos += name_len;
    uint64_t chunk_len = 0;
    if (!GetVarint64(payload, &pos, &chunk_len) ||
        chunk_len > payload.size() - pos) {
      return InvalidArgumentError("table file corrupt (column '" + name +
                                  "' chunk truncated)");
    }
    if (!VerifyColumnChecksum(payload.substr(pos, chunk_len)).ok()) {
      return InvalidArgumentError("table file corrupt in column '" + name +
                                  "' (chunk checksum mismatch)");
    }
    pos += chunk_len;
  }
  return InvalidArgumentError(
      "table file checksum mismatch outside column chunks (header or "
      "trailer corruption)");
}

}  // namespace

TableBlobPlan PlanTableBlob(const rdf::Table& table) {
  TableBlobPlan plan;
  plan.columns.reserve(table.NumColumns());
  plan.bytes = kHeaderBytes + VarintLength(table.NumColumns()) +
               VarintLength(table.NumRows()) + kTrailerBytes;
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    const size_t name = table.column_names()[c].size();
    const ColumnPlan& column = plan.columns.emplace_back(
        PlanColumn(table.Column(c)));
    const size_t chunk = column.block_bytes + kChunkChecksumBytes;
    plan.bytes += VarintLength(name) + name + VarintLength(chunk) + chunk;
  }
  return plan;
}

void WriteTableBlob(const rdf::Table& table, const TableBlobPlan& plan,
                    char* out) {
  char* pos = out;
  std::memcpy(pos, kMagic, 4);
  std::memcpy(pos + 4, &kVersion, 4);
  pos = PutVarint64(pos + kHeaderBytes, table.NumColumns());
  pos = PutVarint64(pos, table.NumRows());
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    const std::string& name = table.column_names()[c];
    pos = PutVarint64(pos, name.size());
    std::memcpy(pos, name.data(), name.size());
    pos += name.size();
    pos = PutVarint64(pos,
                      plan.columns[c].block_bytes + kChunkChecksumBytes);
    pos = WriteColumnChecksummed(table.Column(c), plan.columns[c], pos);
  }
  const size_t payload = plan.bytes - kTrailerBytes;
  S2RDF_CHECK(static_cast<size_t>(pos - out) == payload);
  const uint64_t checksum = Fnv1a64(std::string_view(out, payload));
  std::memcpy(pos, &checksum, kTrailerBytes);
}

std::string SerializeTable(const rdf::Table& table) {
  const TableBlobPlan plan = PlanTableBlob(table);
  std::string out(plan.bytes, '\0');
  WriteTableBlob(table, plan, out.data());
  return out;
}

// Rejects blobs shorter than header + trailer outright so no downstream
// substr/memcpy ever reads out of bounds.
Status VerifyTableBlob(std::string_view blob) {
  if (blob.size() < kMinFileBytes) {
    return InvalidArgumentError(
        "table file too short (" + std::to_string(blob.size()) +
        " bytes; minimum is " + std::to_string(kMinFileBytes) + ")");
  }
  if (std::memcmp(blob.data(), kMagic, 4) != 0) {
    return InvalidArgumentError("not an S2TB table file");
  }
  uint32_t version = 0;
  std::memcpy(&version, blob.data() + 4, 4);
  if (version != kVersion) {
    return InvalidArgumentError("unsupported table file version " +
                                std::to_string(version));
  }
  uint64_t stored = 0;
  std::memcpy(&stored, blob.data() + blob.size() - kTrailerBytes,
              kTrailerBytes);
  std::string_view payload = blob.substr(0, blob.size() - kTrailerBytes);
  if (Fnv1a64(payload) == stored) return Status::Ok();
  return LocalizeCorruption(payload);
}

namespace {

// Verifies `blob` and decodes its first `limit` columns.
StatusOr<rdf::Table> ParseTableBlob(std::string_view blob, uint64_t limit) {
  S2RDF_RETURN_IF_ERROR(VerifyTableBlob(blob));
  // All parsing below is bounded by the payload (trailer excluded), so a
  // damaged length field can never read checksum bytes as data.
  std::string_view payload = blob.substr(0, blob.size() - kTrailerBytes);
  size_t pos = kHeaderBytes;
  uint64_t ncols = 0;
  uint64_t nrows = 0;
  if (!GetVarint64(payload, &pos, &ncols) ||
      !GetVarint64(payload, &pos, &nrows)) {
    return InvalidArgumentError("table file truncated (header)");
  }
  std::vector<std::string> names;
  std::vector<std::vector<uint32_t>> columns;
  for (uint64_t c = 0; c < std::min(ncols, limit); ++c) {
    uint64_t name_len = 0;
    if (!GetVarint64(payload, &pos, &name_len) ||
        name_len > payload.size() - pos) {
      return InvalidArgumentError("table file truncated (column name)");
    }
    names.emplace_back(payload.substr(pos, name_len));
    pos += name_len;
    uint64_t chunk_len = 0;
    if (!GetVarint64(payload, &pos, &chunk_len) ||
        chunk_len > payload.size() - pos) {
      return InvalidArgumentError("table file truncated (column block)");
    }
    std::vector<uint32_t> column;
    Status decoded =
        DecodeColumnChecksummed(payload.substr(pos, chunk_len), &column);
    if (!decoded.ok()) {
      return InvalidArgumentError("column '" + names.back() +
                                  "': " + decoded.message());
    }
    if (column.size() != nrows) {
      return InvalidArgumentError("column row count mismatch");
    }
    columns.push_back(std::move(column));
    pos += chunk_len;
  }
  rdf::Table table(std::move(names));
  table.AdoptColumns(std::move(columns), nrows);
  return table;
}

}  // namespace

StatusOr<rdf::Table> DeserializeTable(std::string_view blob) {
  return ParseTableBlob(blob, UINT64_MAX);
}

StatusOr<std::vector<uint32_t>> PatchRows(std::string_view blob) {
  S2RDF_ASSIGN_OR_RETURN(rdf::Table rows, ParseTableBlob(blob, 1));
  if (rows.NumColumns() != 1) {
    return InvalidArgumentError("patch without row indices");
  }
  return std::move(rows.MutableColumn(0));
}

rdf::Table MakePatch(const rdf::Table& table,
                     const std::vector<uint32_t>& rows) {
  std::vector<std::string> names = {"row"};
  names.insert(names.end(), table.column_names().begin(),
               table.column_names().end());
  std::vector<std::vector<uint32_t>> columns = {rows};
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    const uint32_t* from = table.ColumnData(c);
    std::vector<uint32_t>& column = columns.emplace_back(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) column[i] = from[rows[i]];
  }
  rdf::Table patch(std::move(names));
  patch.AdoptColumns(std::move(columns), rows.size());
  return patch;
}

Status ApplyPatch(const rdf::Table& patch, rdf::Table* table) {
  const size_t width = table->NumColumns();
  if (patch.NumColumns() != width + 1) {
    return InvalidArgumentError("patch has " +
                                std::to_string(patch.NumColumns()) +
                                " columns for a table of " +
                                std::to_string(width));
  }
  const size_t total = table->NumRows() + patch.NumRows();
  const uint32_t* at = patch.ColumnData(0);
  for (size_t i = 0; i < patch.NumRows(); ++i) {
    if (at[i] >= total || (i > 0 && at[i] <= at[i - 1])) {
      return InvalidArgumentError("patch row indices out of order");
    }
  }
  std::vector<std::vector<uint32_t>> columns(width);
  for (size_t c = 0; c < width; ++c) {
    const uint32_t* old_rows = table->ColumnData(c);
    const uint32_t* added = patch.ColumnData(c + 1);
    std::vector<uint32_t>& out = columns[c];
    out.resize(total);
    size_t next = 0;  // Next row of `out` to fill.
    for (size_t i = 0; i < patch.NumRows(); ++i) {
      // The old rows before this insert, then the insert.
      std::copy(old_rows + next - i, old_rows + at[i] - i, out.data() + next);
      out[at[i]] = added[i];
      next = at[i] + 1;
    }
    std::copy(old_rows + next - patch.NumRows(), old_rows + table->NumRows(),
              out.data() + next);
  }
  table->AdoptColumns(std::move(columns), total);
  return Status::Ok();
}

std::vector<uint32_t> MergeInsertedRows(const std::vector<uint32_t>& older,
                                        const std::vector<uint32_t>& newer) {
  // Row j of the table after the first commit is the j-th row the second
  // did not insert: it moves past the `n` inserts that land at or before
  // it. newer[n] - n never decreases, so one walk finds every n.
  std::vector<uint32_t> shifted;
  shifted.reserve(older.size());
  size_t n = 0;
  for (uint32_t j : older) {
    while (n < newer.size() && newer[n] <= j + n) ++n;
    shifted.push_back(static_cast<uint32_t>(j + n));
  }
  std::vector<uint32_t> merged(shifted.size() + newer.size());
  std::merge(shifted.begin(), shifted.end(), newer.begin(), newer.end(),
             merged.begin());
  return merged;
}

}  // namespace s2rdf::storage
