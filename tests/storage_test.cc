#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/strings.h"
#include "storage/catalog.h"
#include "storage/encoding.h"
#include "storage/fault_injection_env.h"
#include "storage/table_file.h"
#include "tests/counting_env.h"
#include "tests/reference_encoder.h"
#include "tests/table_corruption.h"

namespace s2rdf::storage {
namespace {

TEST(EncodingTest, VarintRoundtrip) {
  std::string buf;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1ull << 32, ~0ull};
  for (uint64_t v : values) PutVarint64(&buf, v);
  size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(buf, &pos, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(EncodingTest, VarintTruncationDetected) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(buf, &pos, &v));
}

TEST(EncodingTest, ZigZag) {
  EXPECT_EQ(ZigZagDecode(ZigZagEncode(0)), 0);
  EXPECT_EQ(ZigZagDecode(ZigZagEncode(-1)), -1);
  EXPECT_EQ(ZigZagDecode(ZigZagEncode(123456789)), 123456789);
  EXPECT_EQ(ZigZagDecode(ZigZagEncode(-987654321)), -987654321);
}

void RoundtripColumn(const std::vector<uint32_t>& column) {
  std::string block = EncodeColumn(column);
  std::vector<uint32_t> back;
  ASSERT_TRUE(DecodeColumn(block, &back).ok());
  EXPECT_EQ(back, column);
}

TEST(EncodingTest, ColumnRoundtripEmpty) { RoundtripColumn({}); }

TEST(EncodingTest, ColumnRoundtripPlain) {
  RoundtripColumn({5, 1, 9, 2, 8, 1000000, 3});
}

TEST(EncodingTest, ColumnRlePicksRleAndRoundtrips) {
  std::vector<uint32_t> runs(1000, 7);
  runs.resize(2000, 9);
  std::string block = EncodeColumn(runs);
  EXPECT_EQ(static_cast<ColumnCodec>(block[0]), ColumnCodec::kRle);
  std::vector<uint32_t> back;
  ASSERT_TRUE(DecodeColumn(block, &back).ok());
  EXPECT_EQ(back, runs);
}

TEST(EncodingTest, ColumnDeltaWinsOnSorted) {
  std::vector<uint32_t> sorted;
  for (uint32_t i = 0; i < 1000; ++i) sorted.push_back(1000000 + i * 3);
  std::string block = EncodeColumn(sorted);
  EXPECT_EQ(static_cast<ColumnCodec>(block[0]), ColumnCodec::kDeltaVarint);
  std::vector<uint32_t> back;
  ASSERT_TRUE(DecodeColumn(block, &back).ok());
  EXPECT_EQ(back, sorted);
}

TEST(EncodingTest, DecodeRejectsGarbage) {
  std::vector<uint32_t> out;
  EXPECT_FALSE(DecodeColumn("", &out).ok());
  EXPECT_FALSE(DecodeColumn("\x07junk", &out).ok());
}

rdf::Table MakeTable() {
  rdf::Table t({"s", "o"});
  for (uint32_t i = 0; i < 500; ++i) t.AppendRow({i / 10, i * 7 % 97});
  return t;
}

TEST(TableFileTest, SerializeRoundtrip) {
  rdf::Table t = MakeTable();
  auto back = DeserializeTable(SerializeTable(t));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(rdf::Table::SameBag(t, *back));
}

TEST(TableFileTest, ChecksumDetectsCorruption) {
  std::string blob = SerializeTable(MakeTable());
  blob[blob.size() / 2] ^= 0x40;
  EXPECT_FALSE(DeserializeTable(blob).ok());
}

// Blobs need no framing of their own: one read back out of the middle
// of a file of concatenated blobs, by byte range, decodes on its own.
TEST(TableFileTest, SaveLoadFile) {
  ScopedTempDir dir;
  rdf::Table t = MakeTable();
  const std::string before = SerializeTable(rdf::Table({"x"}));
  const std::string blob = SerializeTable(t);
  const std::string path = dir.path() + "/segment";
  ASSERT_TRUE(WriteFile(path, before + blob + before).ok());
  std::string read;
  ASSERT_TRUE(
      Env::Default()->ReadFileRange(path, before.size(), blob.size(), &read)
          .ok());
  EXPECT_EQ(read, blob);
  auto back = DeserializeTable(read);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(rdf::Table::SameBag(t, *back));
  // A range past the end of the file is a truncated file, not a
  // transient fault.
  EXPECT_EQ(Env::Default()
                ->ReadFileRange(path, before.size() * 2 + blob.size(), 1, &read)
                .code(),
            StatusCode::kOutOfRange);
}

TEST(TableFileTest, CompressionBeatsRawForRepetitiveData) {
  rdf::Table t({"s", "o"});
  for (uint32_t i = 0; i < 10000; ++i) t.AppendRow({3, i});
  std::string blob = SerializeTable(t);
  EXPECT_LT(blob.size(), 10000u * 2 * 4);  // Smaller than raw u32 columns.
}

TEST(CatalogTest, PutAndGet) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 0.5).ok());
  EXPECT_NE(catalog.State()->Find("t1"), nullptr);
  ASSERT_TRUE(catalog.SaveManifest().ok());
  std::optional<TableStats> stats = catalog.GetStats("t1");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->rows, 500u);
  EXPECT_DOUBLE_EQ(stats->selectivity, 0.5);
  EXPECT_TRUE(stats->materialized);
  EXPECT_GT(stats->bytes, 0u);
  auto table = catalog.GetTable("t1");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->NumRows(), 500u);
}

TEST(CatalogTest, StatsOnlyEntryIsNotLoadable) {
  Catalog catalog("");
  catalog.PutStatsOnly("ghost", 17, 1.0);
  EXPECT_NE(catalog.State()->Find("ghost"), nullptr);
  EXPECT_FALSE(catalog.GetStats("ghost")->materialized);
  EXPECT_FALSE(catalog.GetTable("ghost").ok());
}

TEST(CatalogTest, EvictAndReloadFromDisk) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());
  catalog.EvictFromMemory("t1");
  auto table = catalog.GetTable("t1");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->NumRows(), 500u);
}

TEST(CatalogTest, ManifestRoundtrip) {
  ScopedTempDir dir;
  {
    Catalog catalog(dir.path());
    ASSERT_TRUE(catalog.Put("t1", MakeTable(), 0.25).ok());
    catalog.PutStatsOnly("t2", 99, 0.75);
    ASSERT_TRUE(catalog.SaveManifest().ok());
  }
  Catalog restored(dir.path());
  ASSERT_TRUE(restored.LoadManifest().ok());
  EXPECT_EQ(restored.State()->stats.size(), 2u);
  EXPECT_DOUBLE_EQ(restored.GetStats("t1")->selectivity, 0.25);
  EXPECT_FALSE(restored.GetStats("t2")->materialized);
  // Materialized table is loadable after restart.
  auto table = restored.GetTable("t1");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->NumRows(), 500u);
}

// An in-memory catalog never encodes: a table's bytes are its size on
// disk, and it has none.
TEST(CatalogTest, InMemoryCatalogEncodesNothing) {
  Catalog catalog("");
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  EXPECT_EQ(catalog.GetStats("t1")->bytes, 0u);
  EXPECT_EQ(catalog.NumMaterializedTables(), 1u);
  EXPECT_EQ(catalog.TotalTuples(), 500u);
}

TEST(CatalogTest, MemoryBudgetEvictsLru) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  ASSERT_TRUE(catalog.Put("t2", MakeTable(), 1.0).ok());
  ASSERT_TRUE(catalog.Put("t3", MakeTable(), 1.0).ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());
  uint64_t per_table = catalog.CachedBytes() / 3;
  // Budget fits two tables; t1 is least recently used.
  catalog.SetMemoryBudget(per_table * 2);
  ASSERT_TRUE(catalog.GetTable("t1").ok());  // Touch t1: now t2 is LRU.
  size_t evicted = catalog.EvictToBudget();
  EXPECT_EQ(evicted, 1u);
  EXPECT_LE(catalog.CachedBytes(), per_table * 2);
  // All tables remain loadable (the victim reloads from disk).
  for (const char* name : {"t1", "t2", "t3"}) {
    auto table = catalog.GetTable(name);
    ASSERT_TRUE(table.ok()) << name;
    EXPECT_EQ((*table)->NumRows(), 500u);
  }
}

// GetTable hands out shared ownership: a table the budget evicts from
// the cache stays readable by whoever still holds it.
TEST(CatalogTest, GetTableOutlivesEviction) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());
  auto table = catalog.GetTable("t1");
  ASSERT_TRUE(table.ok());
  catalog.SetMemoryBudget(1);
  EXPECT_EQ(catalog.EvictToBudget(), 1u);
  EXPECT_EQ(catalog.CachedBytes(), 0u);
  const rdf::Table expected = MakeTable();
  ASSERT_EQ((*table)->NumRows(), expected.NumRows());
  ASSERT_EQ((*table)->column_names(), expected.column_names());
  for (size_t c = 0; c < expected.NumColumns(); ++c) {
    EXPECT_EQ((*table)->Column(c), expected.Column(c)) << c;
  }
}

TEST(CatalogTest, InMemoryCatalogNeverEvicts) {
  Catalog catalog("");
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  catalog.SetMemoryBudget(1);
  EXPECT_EQ(catalog.EvictToBudget(), 0u);
  EXPECT_TRUE(catalog.GetTable("t1").ok());
}

TEST(CatalogTest, CachedBytesTracksEvictions) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());
  uint64_t before = catalog.CachedBytes();
  EXPECT_GT(before, 0u);
  catalog.EvictFromMemory("t1");
  EXPECT_EQ(catalog.CachedBytes(), 0u);
  ASSERT_TRUE(catalog.GetTable("t1").ok());
  EXPECT_EQ(catalog.CachedBytes(), before);
}

// --- S2TB robustness -----------------------------------------------------

TEST(TableFileTest, RejectsBlobShorterThanMinimum) {
  std::string blob = SerializeTable(MakeTable());
  for (size_t n : {size_t{0}, size_t{4}, size_t{8}, size_t{17}}) {
    auto result = DeserializeTable(std::string_view(blob).substr(0, n));
    ASSERT_FALSE(result.ok()) << n;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("too short"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(TableFileTest, TruncatedBlobDetected) {
  std::string blob = SerializeTable(MakeTable());
  auto result =
      DeserializeTable(std::string_view(blob).substr(0, blob.size() - 9));
  EXPECT_FALSE(result.ok());
}

TEST(TableFileTest, ZeroLengthFileRejectedWithClearError) {
  ScopedTempDir dir;
  ASSERT_TRUE(WriteFile(dir.path() + "/zero.s2tb", "").ok());
  std::string blob;
  ASSERT_TRUE(ReadFile(dir.path() + "/zero.s2tb", &blob).ok());
  auto result = DeserializeTable(blob);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("too short"), std::string::npos);
}

TEST(TableFileTest, BitFlipIsLocalizedToOneColumn) {
  std::string blob = SerializeTable(MakeTable());
  blob[blob.size() / 2] ^= 0x01;  // Mid-file lands inside a column chunk.
  auto result = DeserializeTable(blob);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("column '"), std::string::npos)
      << result.status().ToString();
  EXPECT_FALSE(VerifyTableBlob(blob).ok());
}

TEST(TableFileTest, RoundtripKeepsColumnAndRowOrder) {
  // One column per encoding (run-length, delta, plain) plus a single
  // row and an empty table: decoded columns are adopted as they are, so
  // names, column order and row order must all come back unchanged.
  rdf::Table t({"runs", "sorted", "scattered"});
  for (uint32_t i = 0; i < 3000; ++i) {
    t.AppendRow({i / 1000, 7 * i, (i * 2654435761u) % 100003});
  }
  rdf::Table one({"x"});
  one.AppendRow({42});
  rdf::Table empty({"s", "o"});
  for (const rdf::Table* table : {&t, &one, &empty}) {
    auto back = DeserializeTable(SerializeTable(*table));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->column_names(), table->column_names());
    ASSERT_EQ(back->NumRows(), table->NumRows());
    for (size_t c = 0; c < table->NumColumns(); ++c) {
      EXPECT_EQ(back->Column(c), table->Column(c)) << "column " << c;
    }
  }
}

TEST(TableFileTest, ZeroColumnTableKeepsRowCount) {
  for (size_t rows : {size_t{0}, size_t{1}, size_t{5}}) {
    rdf::Table t(std::vector<std::string>{});
    for (size_t r = 0; r < rows; ++r) t.AppendRow({});
    auto back = DeserializeTable(SerializeTable(t));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->NumColumns(), 0u);
    EXPECT_EQ(back->NumRows(), rows);
  }
}

TEST(TableFileTest, OnlyVersion2IsAccepted) {
  const std::string good = SerializeTable(MakeTable());
  ASSERT_TRUE(VerifyTableBlob(good).ok());
  for (uint32_t version : {0u, 1u, 3u, 0xffffffffu}) {
    // Patch the version and re-seal the trailer, so the version is the
    // blob's only fault.
    std::string blob = good;
    std::memcpy(blob.data() + 4, &version, 4);
    const uint64_t checksum =
        Fnv1a64(std::string_view(blob).substr(0, blob.size() - 8));
    std::memcpy(blob.data() + blob.size() - 8, &checksum, 8);
    const std::string expected =
        "unsupported table file version " + std::to_string(version);
    Status verified = VerifyTableBlob(blob);
    EXPECT_EQ(verified.code(), StatusCode::kInvalidArgument) << version;
    EXPECT_NE(verified.message().find(expected), std::string::npos)
        << verified.ToString();
    auto decoded = DeserializeTable(blob);
    ASSERT_FALSE(decoded.ok()) << version;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find(expected), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(EncodingTest, ChecksummedColumnRoundtripAndDetection) {
  std::vector<uint32_t> column = {5, 1, 9, 2, 8, 1000000, 3};
  const ColumnPlan plan = PlanColumn(column);
  std::string chunk(plan.block_bytes + kChunkChecksumBytes, '\0');
  EXPECT_EQ(WriteColumnChecksummed(column, plan, chunk.data()),
            chunk.data() + chunk.size());
  std::vector<uint32_t> back;
  ASSERT_TRUE(DecodeColumnChecksummed(chunk, &back).ok());
  EXPECT_EQ(back, column);
  chunk[chunk.size() / 2] ^= 0x20;
  EXPECT_FALSE(DecodeColumnChecksummed(chunk, &back).ok());
  EXPECT_FALSE(VerifyColumnChecksum("").ok());
}

// --- The writer against the three-trial reference encoder ----------------
//
// EncodeColumn and SerializeTable size a blob in one counting pass and
// write it in place; tests/reference_encoder encodes every column three
// times and appends. Their bytes must agree everywhere, codec ties
// included.

// A random column of `rows` ids shaped to favour one codec: wide random
// ids (plain), runs (RLE), ascending ids (delta), or a two-letter
// alphabet, whose short columns tie often.
std::vector<uint32_t> RandomColumn(SplitMix64* rng, size_t rows) {
  std::vector<uint32_t> column;
  column.reserve(rows);
  const uint64_t shape = rng->Uniform(4);
  const auto base = static_cast<uint32_t>(rng->Uniform(1u << 21));
  while (column.size() < rows) {
    switch (shape) {
      case 0:
        column.push_back(static_cast<uint32_t>(rng->Next()));
        break;
      case 1:
        column.resize(std::min(rows, column.size() + 1 + rng->Uniform(20)),
                      base + static_cast<uint32_t>(rng->Uniform(300)));
        break;
      case 2:
        column.push_back((column.empty() ? base : column.back()) +
                         static_cast<uint32_t>(rng->Uniform(200)));
        break;
      default:
        column.push_back(base + static_cast<uint32_t>(rng->Uniform(2)) * 1000);
        break;
    }
  }
  return column;
}

TEST(EncoderIdentityTest, ColumnsMatchTheReferenceByteForByte) {
  SplitMix64 rng(20261020);
  uint64_t wins[3] = {0, 0, 0};
  // Columns whose smallest size two codecs share: plain = RLE, plain =
  // delta, RLE = delta.
  uint64_t ties[3] = {0, 0, 0};
  for (int i = 0; i < 100000; ++i) {
    const size_t rows = i % 50 == 0 ? rng.Uniform(3000) : rng.Uniform(12);
    const std::vector<uint32_t> column = RandomColumn(&rng, rows);
    const std::string expected = reference::EncodeColumn(column);
    ASSERT_EQ(EncodeColumn(column), expected) << "column " << i;
    ASSERT_EQ(PlanColumn(column).block_bytes, expected.size());
    ++wins[static_cast<uint8_t>(expected[0])];
    const size_t plain = reference::EncodePlain(column).size();
    const size_t rle = reference::EncodeRle(column).size();
    const size_t delta = reference::EncodeDelta(column).size();
    const size_t best = std::min({plain, rle, delta});
    ties[0] += plain == best && rle == best;
    ties[1] += plain == best && delta == best;
    ties[2] += rle == best && delta == best && plain > best;
  }
  for (int codec = 0; codec < 3; ++codec) {
    EXPECT_GT(wins[codec], 1000u) << "codec " << codec;
    EXPECT_GT(ties[codec], 100u) << "tie " << codec;
  }
}

TEST(EncoderIdentityTest, TiesGoToPlainThenRle) {
  // Empty: every payload is empty.
  EXPECT_EQ(EncodeColumn({}), reference::EncodeColumn({}));
  EXPECT_EQ(static_cast<ColumnCodec>(EncodeColumn({})[0]),
            ColumnCodec::kPlainVarint);
  // {0, 0}: two bytes under every codec.
  EXPECT_EQ(static_cast<ColumnCodec>(EncodeColumn({0, 0})[0]),
            ColumnCodec::kPlainVarint);
  // {5}: plain and delta one byte, RLE two.
  EXPECT_EQ(static_cast<ColumnCodec>(EncodeColumn({5})[0]),
            ColumnCodec::kPlainVarint);
  // {1000, 1000}: RLE and delta three bytes, plain four.
  EXPECT_EQ(static_cast<ColumnCodec>(EncodeColumn({1000, 1000})[0]),
            ColumnCodec::kRle);
  for (const std::vector<uint32_t>& column :
       std::vector<std::vector<uint32_t>>{{0, 0}, {5}, {1000, 1000}}) {
    EXPECT_EQ(EncodeColumn(column), reference::EncodeColumn(column));
  }
}

TEST(EncoderIdentityTest, TablesMatchTheReferenceByteForByte) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const size_t columns = rng.Uniform(5);
    const size_t rows = i % 25 == 0 ? rng.Uniform(2000) : rng.Uniform(40);
    std::vector<std::string> names;
    std::vector<std::vector<uint32_t>> data;
    for (size_t c = 0; c < columns; ++c) {
      // Names past 127 and 16 383 bytes take two- and three-byte lengths.
      const uint64_t length = i % 100 == 0   ? 16384 + rng.Uniform(100)
                              : i % 10 == 0 ? 128 + rng.Uniform(200)
                                            : rng.Uniform(8);
      names.emplace_back(length, static_cast<char>('a' + c));
      data.push_back(RandomColumn(&rng, rows));
    }
    rdf::Table table(std::move(names));
    // A 0-column table still has rows (one solution binding nothing).
    table.AdoptColumns(std::move(data), rows);
    const std::string expected = reference::SerializeTable(table);
    ASSERT_EQ(SerializeTable(table), expected) << "table " << i;
    ASSERT_EQ(PlanTableBlob(table).bytes, expected.size());
  }
  for (const size_t rows : {size_t{0}, size_t{3}}) {
    rdf::Table no_columns;
    no_columns.AdoptColumns({}, rows);
    EXPECT_EQ(SerializeTable(no_columns),
              reference::SerializeTable(no_columns));
  }
  EXPECT_EQ(SerializeTable(rdf::Table({"s", "o"})),
            reference::SerializeTable(rdf::Table({"s", "o"})));
}

// --- Crash safety and recovery ------------------------------------------

TEST(CatalogTest, ManifestGenerationsAdvanceAndPrune) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());
  EXPECT_EQ(catalog.State()->generation, 1u);
  ASSERT_TRUE(catalog.SaveManifest().ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());
  EXPECT_EQ(catalog.State()->generation, 3u);
  EXPECT_TRUE(PathExists(dir.path() + "/CURRENT"));
  EXPECT_TRUE(PathExists(dir.path() + "/manifest-3.tsv"));
  // The previous generation is kept as the chain's fallback link; older
  // ones are pruned.
  EXPECT_TRUE(PathExists(dir.path() + "/manifest-2.tsv"));
  EXPECT_FALSE(PathExists(dir.path() + "/manifest-1.tsv"));
}

TEST(CatalogTest, CorruptCurrentGenerationFallsBackToPrevious) {
  ScopedTempDir dir;
  {
    Catalog catalog(dir.path());
    ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
    ASSERT_TRUE(catalog.SaveManifest().ok());
    catalog.PutStatsOnly("t2", 5, 0.5);
    ASSERT_TRUE(catalog.SaveManifest().ok());
  }
  // Damage generation 2; loading must fall back to generation 1 (the
  // state of the previous successful save).
  std::string manifest;
  ASSERT_TRUE(ReadFile(dir.path() + "/manifest-2.tsv", &manifest).ok());
  manifest[manifest.size() / 2] ^= 0x04;
  ASSERT_TRUE(WriteFile(dir.path() + "/manifest-2.tsv", manifest).ok());
  Catalog restored(dir.path());
  ASSERT_TRUE(restored.LoadManifest().ok());
  EXPECT_EQ(restored.State()->generation, 1u);
  EXPECT_NE(restored.State()->Find("t1"), nullptr);
  EXPECT_EQ(restored.State()->Find("t2"), nullptr);
}

TEST(CatalogTest, UncheckedManifestWithoutChainIsNotFound) {
  // A directory holding only the un-checksummed, generation-less
  // manifest of the original store format: no CURRENT and no
  // manifest-<g>.tsv, so there is no store to load.
  ScopedTempDir dir;
  std::string unchecked =
      "# name\trows\tselectivity\tbytes\tmaterialized\n"
      "ghost\t42\t0.5\t0\t0\n";
  ASSERT_TRUE(WriteFile(dir.path() + "/manifest.tsv", unchecked).ok());
  Catalog catalog(dir.path());
  Status status = catalog.LoadManifest();
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
  EXPECT_FALSE(catalog.GetStats("ghost").has_value());
}

TEST(CatalogTest, UncheckedManifestBesideChainIsIgnored) {
  // The checksummed chain is the only manifest format read: a stray
  // manifest.tsv next to it neither adds entries nor overrides the
  // chain's statistics.
  ScopedTempDir dir;
  {
    Catalog catalog(dir.path());
    ASSERT_TRUE(catalog.Put("t1", MakeTable(), 0.25).ok());
    ASSERT_TRUE(catalog.SaveManifest().ok());
  }
  std::string unchecked =
      "# name\trows\tselectivity\tbytes\tmaterialized\n"
      "t1\t7\t0.9\t0\t0\n"
      "ghost\t42\t0.5\t0\t0\n";
  ASSERT_TRUE(WriteFile(dir.path() + "/manifest.tsv", unchecked).ok());
  Catalog restored(dir.path());
  ASSERT_TRUE(restored.LoadManifest().ok());
  EXPECT_EQ(restored.State()->stats.size(), 1u);
  EXPECT_FALSE(restored.GetStats("ghost").has_value());
  ASSERT_TRUE(restored.GetStats("t1").has_value());
  EXPECT_EQ(restored.GetStats("t1")->rows, 500u);
  EXPECT_DOUBLE_EQ(restored.GetStats("t1")->selectivity, 0.25);
  EXPECT_TRUE(restored.GetStats("t1")->materialized);
}

TEST(CatalogTest, StaleTempFilesSweptAtRecovery) {
  ScopedTempDir dir;
  {
    Catalog catalog(dir.path());
    ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
    ASSERT_TRUE(catalog.SaveManifest().ok());
  }
  // A crash mid-WriteFileAtomic leaves a half-written staging file.
  ASSERT_TRUE(WriteFile(dir.path() + "/t9.s2tb.tmp", "partial write").ok());
  Catalog restored(dir.path());
  auto report = restored.Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->generation, 1u);
  EXPECT_EQ(report->temp_files_removed, 1u);
  EXPECT_EQ(report->tables_verified, 1u);
  EXPECT_EQ(report->tables_quarantined, 0u);
  EXPECT_FALSE(PathExists(dir.path() + "/t9.s2tb.tmp"));
}

TEST(CatalogTest, CorruptTableQuarantinedAtRecovery) {
  ScopedTempDir dir;
  {
    Catalog catalog(dir.path());
    ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
    ASSERT_TRUE(catalog.Put("t2", MakeTable(), 1.0).ok());
    ASSERT_TRUE(catalog.SaveManifest().ok());
    ASSERT_TRUE(testing::CorruptTable(catalog, "t1", std::nullopt, 0x08));
  }

  Catalog restored(dir.path());
  auto report = restored.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tables_quarantined, 1u);
  EXPECT_EQ(report->tables_verified, 1u);
  EXPECT_TRUE(restored.State()->quarantined.contains("t1"));
  EXPECT_FALSE(restored.State()->quarantined.contains("t2"));
  EXPECT_GE(restored.corruptions_detected(), 1u);
  EXPECT_EQ(restored.quarantined_tables(), 1u);
  // A quarantined table refuses to load, with a distinct code.
  auto table = restored.GetTable("t1");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(restored.GetTable("t2").ok());
}

TEST(CatalogTest, ZeroLengthTableQuarantinedAtRecovery) {
  ScopedTempDir dir;
  {
    Catalog catalog(dir.path());
    ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
    ASSERT_TRUE(catalog.SaveManifest().ok());
    // t1's segment, truncated to nothing.
    std::optional<testing::TableRange> range =
        testing::FindTableRange(catalog, "t1");
    ASSERT_TRUE(range.has_value());
    ASSERT_TRUE(WriteFile(range->path, "").ok());
  }
  Catalog restored(dir.path());
  auto report = restored.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tables_quarantined, 1u);
  EXPECT_TRUE(restored.State()->quarantined.contains("t1"));
}

TEST(CatalogTest, CorruptLoadQuarantinesOnFirstAccess) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());
  catalog.EvictFromMemory("t1");
  ASSERT_TRUE(testing::CorruptTable(
      catalog, "t1", catalog.GetStats("t1")->bytes - 1,  // Trailer byte.
      0x02));

  EXPECT_FALSE(catalog.GetTable("t1").ok());
  EXPECT_TRUE(catalog.State()->quarantined.contains("t1"));
  EXPECT_EQ(catalog.corruptions_detected(), 1u);
  // A fresh Put heals the quarantine.
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  EXPECT_FALSE(catalog.State()->quarantined.contains("t1"));
  EXPECT_TRUE(catalog.GetTable("t1").ok());
}

TEST(CatalogTest, TransientReadErrorsAreRetriedNotQuarantined) {
  ScopedTempDir dir;
  FaultInjectionEnv fenv;
  Catalog catalog(dir.path(), &fenv);
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());
  catalog.EvictFromMemory("t1");
  fenv.FailNextReads(2);  // Fewer than the retry budget.
  auto table = catalog.GetTable("t1");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_FALSE(catalog.State()->quarantined.contains("t1"));
  EXPECT_EQ(catalog.corruptions_detected(), 0u);
}

TEST(CatalogTest, PersistentTransientErrorsSurfaceWithoutQuarantine) {
  ScopedTempDir dir;
  FaultInjectionEnv fenv;
  Catalog catalog(dir.path(), &fenv);
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());
  catalog.EvictFromMemory("t1");
  fenv.FailNextReads(100);  // Outlasts any retry budget.
  auto table = catalog.GetTable("t1");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
  // Transient failures are not corruption: no quarantine.
  EXPECT_FALSE(catalog.State()->quarantined.contains("t1"));
  fenv.ClearFaults();
  EXPECT_TRUE(catalog.GetTable("t1").ok());
}

TEST(CatalogTest, AtomicPutLeavesOldTableOnCrash) {
  ScopedTempDir dir;
  FaultInjectionEnv fenv;
  fenv.set_crash_style(FaultInjectionEnv::CrashStyle::kTorn);
  Catalog catalog(dir.path(), &fenv);
  rdf::Table small({"s", "o"});
  small.AppendRow({1, 2});
  ASSERT_TRUE(catalog.Put("t1", std::move(small), 1.0).ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());

  // Crash during the replacement's commit: the torn prefix only ever
  // hits the new, unreferenced segment, never the one holding t1.
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  fenv.CrashAfterMutations(0);
  EXPECT_FALSE(catalog.SaveManifest().ok());
  fenv.ClearFaults();

  Catalog reopened(dir.path());
  ASSERT_TRUE(reopened.Recover().ok());
  auto table = reopened.GetTable("t1");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->NumRows(), 1u);  // Old state, intact.
}

// --- Segments -----------------------------------------------------------

using testing::CountingEnv;

rdf::Table MakeRows(uint32_t rows) {
  rdf::Table t({"s", "o"});
  for (uint32_t i = 0; i < rows; ++i) t.AppendRow({i, i * 3 % 11});
  return t;
}

TEST(SegmentTest, CommitSyncsDoNotGrowWithTableCount) {
  auto commit = [](uint32_t tables, CountingEnv* env) {
    ScopedTempDir dir;
    Catalog catalog(dir.path(), env);
    for (uint32_t i = 0; i < tables; ++i) {
      ASSERT_TRUE(catalog.Put("t" + std::to_string(i), MakeRows(i % 7 + 1),
                              1.0)
                      .ok());
    }
    ASSERT_TRUE(catalog.SaveManifest().ok());
    EXPECT_EQ(catalog.NumMaterializedTables(), tables);
  };
  CountingEnv ten;
  CountingEnv thousand;
  commit(10, &ten);
  commit(1000, &thousand);
  EXPECT_EQ(ten.syncs, thousand.syncs);
  EXPECT_EQ(ten.files_written, thousand.files_written);
  // The segment, then the manifest and CURRENT (file + directory each).
  EXPECT_EQ(thousand.syncs, 5u);
  EXPECT_EQ(thousand.files_written, 3u);
}

TEST(SegmentTest, GetTableReadsExactlyItsBytes) {
  ScopedTempDir dir;
  CountingEnv env;
  Catalog catalog(dir.path(), &env);
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  ASSERT_TRUE(catalog.Put("t2", MakeRows(3), 1.0).ok());
  ASSERT_TRUE(catalog.Put("t3", MakeTable(), 1.0).ok());
  ASSERT_TRUE(catalog.SaveManifest().ok());
  // One segment holds all three.
  EXPECT_EQ(catalog.GetStats("t1")->extents.at(0).segment,
            catalog.GetStats("t3")->extents.at(0).segment);
  catalog.EvictFromMemory("t2");
  env.bytes_read = 0;
  auto table = catalog.GetTable("t2");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->NumRows(), 3u);
  EXPECT_EQ(env.bytes_read, catalog.GetStats("t2")->bytes);
}

TEST(SegmentTest, BitFlipQuarantinesOnlyTheTableItLandsIn) {
  ScopedTempDir dir;
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  {
    Catalog catalog(dir.path());
    for (size_t i = 0; i < names.size(); ++i) {
      const auto rows = static_cast<uint32_t>(50 * (i + 1));
      ASSERT_TRUE(catalog.Put(names[i], MakeRows(rows), 1.0).ok());
    }
    ASSERT_TRUE(catalog.SaveManifest().ok());
  }
  Catalog committed(dir.path());
  ASSERT_TRUE(committed.LoadManifest().ok());
  for (const std::string& victim : names) {
    const uint64_t bytes = committed.GetStats(victim)->bytes;
    // Header, middle and trailer of the blob.
    for (uint64_t pos : {uint64_t{0}, bytes / 2, bytes - 1}) {
      SCOPED_TRACE(victim + " byte " + std::to_string(pos));
      ASSERT_TRUE(testing::CorruptTable(committed, victim, pos));
      Catalog restored(dir.path());
      auto report = restored.Recover();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->tables_quarantined, 1u);
      EXPECT_EQ(report->tables_verified, names.size() - 1);
      for (const std::string& name : names) {
        EXPECT_EQ(restored.State()->quarantined.contains(name),
                  name == victim)
            << name;
      }
      ASSERT_TRUE(testing::CorruptTable(committed, victim, pos));  // Undo.
    }
  }
}

TEST(SegmentTest, StagedTablesStayCachedUntilCommitted) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
  catalog.SetMemoryBudget(1);
  // Nothing is on disk yet, so nothing may be dropped.
  EXPECT_EQ(catalog.EvictToBudget(), 0u);
  catalog.EvictFromMemory("t1");
  EXPECT_GT(catalog.CachedBytes(), 0u);
  EXPECT_EQ(catalog.GetStats("t1")->bytes, 0u);
  EXPECT_FALSE(PathExists(dir.path() + "/CURRENT"));
  ASSERT_TRUE(catalog.SaveManifest().ok());
  EXPECT_GT(catalog.GetStats("t1")->bytes, 0u);
  EXPECT_EQ(catalog.EvictToBudget(), 1u);
  auto table = catalog.GetTable("t1");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->NumRows(), 500u);
}

// Commits `r1`-`r3` anew at 40 rows each, after the first commit stored
// them at 500 rows beside the small `keep`: the first segment's dead bytes
// then outweigh the generation's live bytes, so the commit compacts it.
std::vector<TableUpdate> ReplaceLargeTables() {
  std::vector<TableUpdate> updates;
  for (const char* name : {"r1", "r2", "r3"}) {
    TableUpdate update;
    update.name = name;
    update.table = MakeRows(40);
    updates.push_back(std::move(update));
  }
  return updates;
}

TEST(SegmentTest, SparseSegmentIsCopiedForwardByteForByte) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.Put("keep", MakeRows(5), 1.0).ok());
  for (const char* name : {"r1", "r2", "r3"}) {
    ASSERT_TRUE(catalog.Put(name, MakeTable(), 1.0).ok());
  }
  CommitOptions first;
  first.dictionary_blob = "terms of the first commit";
  ASSERT_TRUE(catalog.CommitBatch({}, first).ok());
  std::optional<testing::TableRange> before =
      testing::FindTableRange(catalog, "keep");
  ASSERT_TRUE(before.has_value());
  std::string blob;
  ASSERT_TRUE(Env::Default()
                  ->ReadFileRange(before->path, before->offset, before->bytes,
                                  &blob)
                  .ok());
  // Replacing the three large tables leaves the first segment mostly
  // dead: its live blobs, `keep` and the dictionary blob, move to the new
  // segment, and the dictionary blob stays first in id order.
  CommitOptions second;
  second.dictionary_blob = "terms of the second commit";
  ASSERT_TRUE(catalog.CommitBatch(ReplaceLargeTables(), second).ok());
  std::optional<testing::TableRange> after =
      testing::FindTableRange(catalog, "keep");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(catalog.GetStats("keep")->extents.at(0).segment,
            catalog.State()->generation);
  EXPECT_FALSE(PathExists(before->path));
  std::string moved;
  ASSERT_TRUE(Env::Default()
                  ->ReadFileRange(after->path, after->offset, after->bytes,
                                  &moved)
                  .ok());
  EXPECT_EQ(moved, blob);
  const std::vector<BlobLocation> dictionary =
      catalog.State()->dictionary_blobs;
  ASSERT_EQ(dictionary.size(), 2u);
  for (const BlobLocation& at : dictionary) {
    EXPECT_EQ(at.segment, catalog.State()->generation);
  }
  ASSERT_TRUE(catalog.ReadBlob(dictionary[0], &moved).ok());
  EXPECT_EQ(moved, first.dictionary_blob);
  ASSERT_TRUE(catalog.ReadBlob(dictionary[1], &moved).ok());
  EXPECT_EQ(moved, second.dictionary_blob);

  Catalog restored(dir.path());
  auto report = restored.Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->tables_verified, 4u);
  EXPECT_EQ(report->tables_quarantined, 0u);
  EXPECT_EQ(report->orphan_segments_removed, 0u);
  EXPECT_EQ(restored.State()->dictionary_blobs, dictionary);
}

// `table` with the rows of `rows` (ascending indices into the result)
// inserted, each row r being {1000 + r, r}.
rdf::Table WithInserted(const rdf::Table& table,
                        const std::vector<uint32_t>& rows) {
  rdf::Table out(table.column_names());
  size_t next = 0;
  for (uint32_t r = 0; r < table.NumRows() + rows.size(); ++r) {
    if (next < rows.size() && rows[next] == r) {
      out.AppendRow({1000 + r, r});
      ++next;
    } else {
      out.AppendRowFrom(table, r - next);
    }
  }
  return out;
}

bool SameRows(const rdf::Table& a, const rdf::Table& b) {
  if (a.NumRows() != b.NumRows() || a.NumColumns() != b.NumColumns()) {
    return false;
  }
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    if (a.Column(c) != b.Column(c)) return false;
  }
  return true;
}

TEST(TableFileTest, PatchesInsertRowsWhereTheirIndicesSay) {
  const rdf::Table base = MakeRows(10);
  // Inserts at the front, inside and at the end.
  const std::vector<uint32_t> first = {0, 4, 5, 12};
  const rdf::Table after_first = WithInserted(base, first);
  const std::vector<uint32_t> second = {3, 15, 16};
  const rdf::Table after_second = WithInserted(after_first, second);

  // Each patch, through its blob, turns its table into the next.
  rdf::Table merged = base;
  for (const auto& [rows, expected] :
       {std::pair{first, &after_first}, std::pair{second, &after_second}}) {
    const rdf::Table patch = MakePatch(*expected, rows);
    EXPECT_EQ(patch.column_names(),
              (std::vector<std::string>{"row", "s", "o"}));
    auto decoded = DeserializeTable(SerializeTable(patch));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(ApplyPatch(*decoded, &merged).ok());
    EXPECT_TRUE(SameRows(merged, *expected));
  }

  // One patch of both commits' rows does the same from the base.
  const std::vector<uint32_t> both = MergeInsertedRows(first, second);
  EXPECT_EQ(both, (std::vector<uint32_t>{0, 3, 5, 6, 13, 15, 16}));
  merged = base;
  ASSERT_TRUE(ApplyPatch(MakePatch(after_second, both), &merged).ok());
  EXPECT_TRUE(SameRows(merged, after_second));
}

TEST(TableFileTest, APatchThatDoesNotFitItsTableIsRejected) {
  const rdf::Table base = MakeRows(4);
  const rdf::Table grown = WithInserted(base, {1, 2});
  for (const std::vector<uint32_t>& rows :
       {std::vector<uint32_t>{2, 1}, std::vector<uint32_t>{1, 1},
        std::vector<uint32_t>{1, 6}}) {
    rdf::Table patch = MakePatch(grown, {1, 2});
    patch.MutableColumn(0) = rows;  // Out of order, repeated, past the end.
    rdf::Table table = base;
    EXPECT_EQ(ApplyPatch(patch, &table).code(), StatusCode::kInvalidArgument);
  }
  rdf::Table table = MakeTable();
  EXPECT_EQ(ApplyPatch(MakeRows(2), &table).code(),
            StatusCode::kInvalidArgument);  // No row column.
}

// A table that carries a patch lives in two segments; when both are
// compacted, base and patch move byte for byte — the patch's indices are
// logical — and the table reads back, before and after a reopen, as the
// rows the commits wrote.
TEST(SegmentTest, CopyForwardMovesPatchExtentsByteForByte) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  const rdf::Table keep = MakeRows(200);
  ASSERT_TRUE(catalog.Put("keep", keep, 1.0).ok());
  for (const char* name : {"r1", "r2", "r3"}) {
    ASSERT_TRUE(catalog.Put(name, MakeTable(), 1.0).ok());
  }
  ASSERT_TRUE(catalog.SaveManifest().ok());

  // Generation 2 patches `keep` — rows inside it and after it — and
  // rewrites the large tables whole beside the patch.
  const std::vector<uint32_t> inserted = {0, 50, 51, 150, 203, 204};
  const rdf::Table patched = WithInserted(keep, inserted);
  std::vector<TableUpdate> updates;
  TableUpdate update;
  update.name = "keep";
  update.table = patched;
  update.new_rows = inserted;
  updates.push_back(std::move(update));
  for (const char* name : {"r1", "r2", "r3"}) {
    TableUpdate large;
    large.name = name;
    large.table = MakeRows(400);
    updates.push_back(std::move(large));
  }
  CommitReport report;
  ASSERT_TRUE(catalog.CommitBatch(std::move(updates), {}, &report).ok());
  EXPECT_EQ(report.tables_patched, 1u);
  EXPECT_EQ(report.tables_written_whole, 3u);
  ASSERT_EQ(testing::CountExtents(catalog, "keep"), 2u);
  std::string blobs[2];
  for (size_t e = 0; e < 2; ++e) {
    std::optional<testing::TableRange> range =
        testing::FindTableRange(catalog, "keep", e);
    ASSERT_TRUE(range.has_value());
    EXPECT_EQ(range->path, catalog.SegmentPath(e + 1));
    ASSERT_TRUE(Env::Default()
                    ->ReadFileRange(range->path, range->offset, range->bytes,
                                    &blobs[e])
                    .ok());
  }

  // Shrinking the large tables leaves segments 1 and 2 mostly dead: both
  // are compacted, and `keep`'s base and patch move to segment 3.
  ASSERT_TRUE(catalog.CommitBatch(ReplaceLargeTables()).ok());
  EXPECT_FALSE(PathExists(catalog.SegmentPath(1)));
  EXPECT_FALSE(PathExists(catalog.SegmentPath(2)));
  ASSERT_EQ(testing::CountExtents(catalog, "keep"), 2u);
  for (size_t e = 0; e < 2; ++e) {
    std::optional<testing::TableRange> range =
        testing::FindTableRange(catalog, "keep", e);
    ASSERT_TRUE(range.has_value());
    EXPECT_EQ(range->path, catalog.SegmentPath(3));
    std::string moved;
    ASSERT_TRUE(Env::Default()
                    ->ReadFileRange(range->path, range->offset, range->bytes,
                                    &moved)
                    .ok());
    EXPECT_EQ(moved, blobs[e]) << "extent " << e;
  }
  auto cached = catalog.GetTable("keep");
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_TRUE(SameRows(**cached, patched));
  catalog.EvictFromMemory("keep");
  auto merged = catalog.GetTable("keep");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(SameRows(**merged, patched));

  Catalog restored(dir.path());
  auto recovered = restored.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->tables_verified, 4u);
  EXPECT_EQ(recovered->tables_quarantined, 0u);
  auto reopened = restored.GetTable("keep");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(SameRows(**reopened, patched));
}

TEST(SegmentTest, UnreferencedSegmentSweptAtRecovery) {
  ScopedTempDir dir;
  std::string referenced;
  {
    Catalog catalog(dir.path());
    ASSERT_TRUE(catalog.Put("t1", MakeTable(), 1.0).ok());
    ASSERT_TRUE(catalog.SaveManifest().ok());
    referenced =
        catalog.SegmentPath(catalog.GetStats("t1")->extents.at(0).segment);
  }
  // A commit that died before its flip leaves its segment behind.
  Catalog restored(dir.path());
  const std::string debris = restored.SegmentPath(2);
  ASSERT_TRUE(WriteFile(debris, "half a segment").ok());
  auto report = restored.Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->orphan_segments_removed, 1u);
  EXPECT_FALSE(PathExists(debris));
  EXPECT_TRUE(PathExists(referenced));
  EXPECT_TRUE(restored.GetTable("t1").ok());
}

TEST(SegmentTest, ADictionaryBlobKeepsItsSegmentLive) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.Put("t1", MakeRows(3), 1.0).ok());
  CommitOptions commit;
  commit.dictionary_blob = std::string(4096, 'd');
  ASSERT_TRUE(catalog.CommitBatch({}, commit).ok());
  // Replacing t1 leaves segment 1 holding only the dictionary blob, which
  // is more than half of it: the segment stays where it is.
  TableUpdate update;
  update.name = "t1";
  update.table = MakeRows(4);
  std::vector<TableUpdate> updates;
  updates.push_back(std::move(update));
  ASSERT_TRUE(catalog.CommitBatch(std::move(updates)).ok());
  EXPECT_EQ(catalog.GetStats("t1")->extents.at(0).segment, 2u);
  ASSERT_EQ(catalog.State()->dictionary_blobs.size(), 1u);
  EXPECT_EQ(catalog.State()->dictionary_blobs[0].segment, 1u);

  Catalog restored(dir.path());
  auto report = restored.Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->orphan_segments_removed, 0u);
  std::string blob;
  ASSERT_TRUE(
      restored.ReadBlob(restored.State()->dictionary_blobs[0], &blob).ok());
  EXPECT_EQ(blob, commit.dictionary_blob);
}

TEST(SegmentTest, BitFlipInTheSegmentOrManifestRollsTheCommitBack) {
  // Write 0 is the segment, write 1 the manifest: each is read back
  // before CURRENT flips.
  for (uint64_t write : {uint64_t{0}, uint64_t{1}}) {
    SCOPED_TRACE("flip_write=" + std::to_string(write));
    ScopedTempDir dir;
    FaultInjectionEnv env;
    Catalog catalog(dir.path(), &env);
    ASSERT_TRUE(catalog.Put("t1", MakeRows(3), 1.0).ok());
    ASSERT_TRUE(catalog.SaveManifest().ok());
    ASSERT_TRUE(catalog.Put("t1", MakeRows(9), 1.0).ok());
    env.FlipBitInWrite(write);
    Status status = catalog.SaveManifest();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("read-back"), std::string::npos);
    EXPECT_EQ(catalog.State()->generation, 1u);

    Catalog restored(dir.path());
    auto report = restored.Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->generation, 1u);
    EXPECT_EQ(report->tables_quarantined, 0u);
    EXPECT_EQ(report->orphan_segments_removed, 1u);
    auto table = restored.GetTable("t1");
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ((*table)->NumRows(), 3u);
  }
}

TEST(SegmentTest, FallbackGenerationKeepsTheSegmentsItCannotAccountFor) {
  ScopedTempDir dir;
  {
    Catalog catalog(dir.path());
    ASSERT_TRUE(catalog.Put("keep", MakeRows(5), 1.0).ok());
    for (const char* name : {"r1", "r2", "r3"}) {
      ASSERT_TRUE(catalog.Put(name, MakeTable(), 1.0).ok());
    }
    ASSERT_TRUE(catalog.SaveManifest().ok());
    ASSERT_TRUE(catalog.CommitBatch(ReplaceLargeTables()).ok());
    ASSERT_FALSE(PathExists(catalog.SegmentPath(1)));  // Compacted.
  }
  // Damage the current manifest: recovery falls back to generation 1,
  // whose segment the compaction deleted.
  const std::string manifest = dir.path() + "/manifest-2.tsv";
  std::string content;
  ASSERT_TRUE(ReadFile(manifest, &content).ok());
  content[content.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFile(manifest, content).ok());

  Catalog restored(dir.path());
  auto report = restored.Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->generation, 1u);
  EXPECT_EQ(report->tables_quarantined, 4u);
  // Segment 2 holds the only intact copy of every table.
  EXPECT_EQ(report->orphan_segments_removed, 0u);
  EXPECT_TRUE(PathExists(restored.SegmentPath(2)));
}

// A state is one generation: a commit that replaces tables and compacts
// the segment holding their old blobs changes nothing an older state
// reads, and the compacted segment stays on disk until the last state
// that references it is released.
TEST(SegmentTest, AStateReadsOneGeneration) {
  ScopedTempDir dir;
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.Put("keep", MakeRows(5), 1.0).ok());
  for (const char* name : {"r1", "r2", "r3"}) {
    ASSERT_TRUE(catalog.Put(name, MakeTable(), 1.0).ok());
  }
  ASSERT_TRUE(catalog.SaveManifest().ok());
  const std::string compacted = catalog.SegmentPath(1);
  std::shared_ptr<const CatalogState> old_state = catalog.State();
  ASSERT_TRUE(catalog.CommitBatch(ReplaceLargeTables()).ok());
  std::shared_ptr<const CatalogState> new_state = catalog.State();
  EXPECT_EQ(old_state->generation, 1u);
  EXPECT_EQ(new_state->generation, 2u);
  // Copied forward.
  EXPECT_EQ(new_state->Find("keep")->extents.at(0).segment, 2u);
  EXPECT_TRUE(PathExists(compacted));
  // Every read below comes from a segment file.
  catalog.SetMemoryBudget(1);
  catalog.EvictToBudget();
  for (const char* name : {"r1", "r2", "r3", "keep"}) {
    SCOPED_TRACE(name);
    auto before = catalog.GetTable(*old_state, name);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    auto after = catalog.GetTable(*new_state, name);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    const bool replaced = std::string(name) != "keep";
    EXPECT_EQ((*before)->NumRows(), replaced ? 500u : 5u);
    EXPECT_EQ((*after)->NumRows(), replaced ? 40u : 5u);
  }
  EXPECT_EQ(catalog.quarantined_tables(), 0u);
  old_state.reset();
  EXPECT_FALSE(PathExists(compacted));
  auto table = catalog.GetTable(*new_state, "r1");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->NumRows(), 40u);
}

TEST(FaultInjectionEnvTest, CrashPointSemantics) {
  ScopedTempDir dir;
  FaultInjectionEnv env;
  env.CrashAfterMutations(1);
  EXPECT_TRUE(env.WriteFile(dir.path() + "/a", "x").ok());
  EXPECT_FALSE(env.WriteFile(dir.path() + "/b", "y").ok());  // Crash point.
  EXPECT_TRUE(env.crashed());
  EXPECT_FALSE(env.RenameFile(dir.path() + "/a", dir.path() + "/c").ok());
  EXPECT_EQ(env.mutation_count(), 1u);
  env.ClearFaults();
  EXPECT_TRUE(env.WriteFile(dir.path() + "/b", "y").ok());
}

TEST(FaultInjectionEnvTest, TornWritePersistsPrefix) {
  ScopedTempDir dir;
  FaultInjectionEnv env;
  env.set_crash_style(FaultInjectionEnv::CrashStyle::kTorn);
  env.CrashAfterMutations(0);
  EXPECT_FALSE(env.WriteFile(dir.path() + "/torn", "0123456789").ok());
  env.ClearFaults();
  std::string data;
  ASSERT_TRUE(ReadFile(dir.path() + "/torn", &data).ok());
  EXPECT_EQ(data, "01234");
}

TEST(FaultInjectionEnvTest, BitFlipIsSilent) {
  ScopedTempDir dir;
  FaultInjectionEnv env;
  env.FlipBitInNextWrite();
  ASSERT_TRUE(env.WriteFile(dir.path() + "/f", "aaaa").ok());
  std::string data;
  ASSERT_TRUE(ReadFile(dir.path() + "/f", &data).ok());
  EXPECT_NE(data, "aaaa");
  // Only the next write is affected.
  ASSERT_TRUE(env.WriteFile(dir.path() + "/g", "aaaa").ok());
  ASSERT_TRUE(ReadFile(dir.path() + "/g", &data).ok());
  EXPECT_EQ(data, "aaaa");
}

}  // namespace
}  // namespace s2rdf::storage
