#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/file_util.h"
#include "common/task_pool.h"
#include "storage/catalog.h"
#include "tests/reference_encoder.h"

// A commit plans its table blobs, lays them out in name order and writes
// each in place across the shared TaskPool. The segment's bytes must not
// depend on how many threads wrote them: this suite is registered at pool
// width 4 and, suffixed ".width1", at width 1, and compares each segment
// with the reference encoder's blobs laid out by hand.

namespace s2rdf::storage {
namespace {

// Table `i` of a mix of shapes: 0 to 3 columns, 0 to ~2 000 rows, runs,
// ascending and scattered ids.
rdf::Table MixedTable(uint32_t i) {
  const uint32_t columns = i % 4;
  const uint32_t rows = (i * 7919) % 2048 * (i % 5 == 0 ? 0 : 1);
  std::vector<std::string> names;
  std::vector<std::vector<uint32_t>> data(columns);
  for (uint32_t c = 0; c < columns; ++c) {
    names.push_back("c" + std::to_string(c));
    for (uint32_t r = 0; r < rows; ++r) {
      switch ((i + c) % 3) {
        case 0: data[c].push_back(r / 16); break;                 // Runs.
        case 1: data[c].push_back(100000 + 3 * r); break;         // Sorted.
        default: data[c].push_back((r * 2654435761u) >> 7); break;
      }
    }
  }
  rdf::Table table(std::move(names));
  table.AdoptColumns(std::move(data), rows);
  return table;
}

std::string ReadSegment(const Catalog& catalog, uint64_t generation) {
  std::string bytes;
  EXPECT_TRUE(
      Env::Default()->ReadFile(catalog.SegmentPath(generation), &bytes).ok());
  return bytes;
}

TEST(SegmentLayoutTest, PoolRunsAtTheRegisteredWidth) {
  const char* width = std::getenv("S2RDF_TASK_POOL_THREADS");
  if (width == nullptr) GTEST_SKIP() << "S2RDF_TASK_POOL_THREADS unset";
  EXPECT_EQ(TaskPool::Shared()->ParallelismWidth(),
            static_cast<size_t>(std::atoi(width)));
}

TEST(SegmentLayoutTest, SegmentHoldsTheReferenceBlobsInNameOrder) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  std::map<std::string, rdf::Table> tables;  // Name order.
  for (uint32_t i = 0; i < 120; ++i) {
    tables.emplace("t" + std::to_string(i), MixedTable(i));
  }
  for (const auto& [name, table] : tables) {
    ASSERT_TRUE(catalog.Put(name, table, 1.0).ok());
  }
  CommitOptions commit;
  commit.dictionary_blob = "the dictionary blob of generation 1";
  ASSERT_TRUE(catalog.CommitBatch({}, commit).ok());

  std::string expected;
  for (const auto& [name, table] : tables) {
    const TableStats* stats = catalog.State()->Find(name);
    ASSERT_NE(stats, nullptr) << name;
    ASSERT_EQ(stats->extents.size(), 1u) << name;
    EXPECT_EQ(stats->extents[0].offset, expected.size()) << name;
    expected += reference::SerializeTable(table);
  }
  expected += commit.dictionary_blob;
  EXPECT_EQ(ReadSegment(catalog, 1), expected);
}

TEST(SegmentLayoutTest, CopiedForwardBlobsFollowTheNewOnes) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  std::map<std::string, rdf::Table> tables;
  for (uint32_t i = 0; i < 120; ++i) {
    tables.emplace("t" + std::to_string(1000 + i), MixedTable(i));
  }
  for (const auto& [name, table] : tables) {
    ASSERT_TRUE(catalog.Put(name, table, 1.0).ok());
  }
  CommitOptions first;
  first.dictionary_blob = "first";
  ASSERT_TRUE(catalog.CommitBatch({}, first).ok());

  // Replace all but every tenth table: segment 1's dead bytes outweigh
  // the generation's live bytes, so its live blobs move behind the second
  // commit's own.
  std::vector<TableUpdate> updates;
  std::string expected;
  for (auto& [name, table] : tables) {
    if (name.back() == '0') continue;
    table = MixedTable(static_cast<uint32_t>(table.NumRows()) + 7);
    TableUpdate update;
    update.name = name;
    update.table = table;
    updates.push_back(std::move(update));
    expected += reference::SerializeTable(table);
  }
  CommitOptions second;
  second.dictionary_blob = "second";
  ASSERT_TRUE(catalog.CommitBatch(std::move(updates), second).ok());
  expected += second.dictionary_blob;
  for (const auto& [name, table] : tables) {
    if (name.back() == '0') expected += reference::SerializeTable(table);
  }
  expected += first.dictionary_blob;
  EXPECT_EQ(ReadSegment(catalog, 2), expected);
  EXPECT_FALSE(PathExists(catalog.SegmentPath(1)));
}

}  // namespace
}  // namespace s2rdf::storage
