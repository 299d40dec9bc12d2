#include "tests/table_corruption.h"

#include "common/file_util.h"
#include "common/strings.h"

namespace s2rdf::testing {

std::optional<TableRange> FindTableRange(const storage::Catalog& catalog,
                                         const std::string& name,
                                         size_t extent) {
  std::optional<storage::TableStats> stats = catalog.GetStats(name);
  if (!stats.has_value() || !stats->materialized ||
      extent >= stats->extents.size()) {
    return std::nullopt;
  }
  const storage::BlobLocation& at = stats->extents[extent];
  return TableRange{catalog.SegmentPath(at.segment), at.offset, at.bytes};
}

size_t CountExtents(const storage::Catalog& catalog, const std::string& name) {
  std::optional<storage::TableStats> stats = catalog.GetStats(name);
  return stats.has_value() ? stats->extents.size() : 0;
}

std::vector<TableRange> FindDictionaryRanges(const storage::Catalog& catalog) {
  std::vector<TableRange> ranges;
  for (const storage::BlobLocation& at : catalog.State()->dictionary_blobs) {
    ranges.push_back({catalog.SegmentPath(at.segment), at.offset, at.bytes});
  }
  return ranges;
}

bool CorruptTable(const storage::Catalog& catalog, const std::string& name,
                  std::optional<uint64_t> pos, uint8_t mask, size_t extent) {
  std::optional<TableRange> range = FindTableRange(catalog, name, extent);
  if (!range.has_value()) return false;
  const uint64_t at = pos.value_or(range->bytes / 2);
  if (at >= range->bytes) return false;
  std::string segment;
  if (!ReadFile(range->path, &segment).ok() ||
      range->offset + at >= segment.size()) {
    return false;
  }
  segment[range->offset + at] ^= static_cast<char>(mask);
  return WriteFile(range->path, segment).ok();
}

int CorruptTables(const std::string& dir, const std::string& prefix) {
  storage::Catalog catalog(dir);
  if (!catalog.LoadManifest().ok()) return 0;
  int corrupted = 0;
  for (const storage::TableStats* stats : catalog.AllStats()) {
    if (StartsWith(stats->name, prefix) && CorruptTable(catalog, stats->name)) {
      ++corrupted;
    }
  }
  return corrupted;
}

}  // namespace s2rdf::testing
