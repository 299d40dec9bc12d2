#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/strings.h"
#include "core/layout_names.h"
#include "core/s2rdf.h"
#include "server/sparql_endpoint.h"
#include "storage/catalog.h"
#include "storage/encoding.h"
#include "storage/fault_injection_env.h"
#include "storage/table_file.h"
#include "tests/table_corruption.h"

// Fault-injection tests for the durability protocol end to end: the
// crash-point matrix (crash after every k-th mutating I/O op during a
// full store build, then "reboot" and assert the recovered state is
// always consistent), and graceful degradation (corrupt tables are
// quarantined and queries answer identically from superset tables,
// ExtVP -> VP -> triples table).

namespace s2rdf::core {
namespace {

using storage::Catalog;
using storage::FaultInjectionEnv;

// The paper's running example graph G1 (Fig. 1), its two predicates
// named "follows" and "likes" followed by `suffix`.
rdf::Graph MakeG1(const std::string& suffix = "") {
  const std::string follows = "follows" + suffix;
  const std::string likes = "likes" + suffix;
  rdf::Graph g;
  g.AddIris("A", follows, "B");
  g.AddIris("B", follows, "C");
  g.AddIris("B", follows, "D");
  g.AddIris("C", follows, "D");
  g.AddIris("A", likes, "I1");
  g.AddIris("A", likes, "I2");
  g.AddIris("C", likes, "I2");
  return g;
}

// Q1 (Fig. 2): friends of friends who like the same things. Exercises
// ExtVP table selection on every pattern.
constexpr char kQ1[] =
    "SELECT * WHERE { ?x <likes> ?w . ?x <follows> ?y . "
    "?y <follows> ?z . ?z <likes> ?w }";

// Q1 over MakeG1(suffix).
std::string Q1Over(const std::string& suffix) {
  return "SELECT * WHERE { ?x <likes" + suffix + "> ?w . ?x <follows" +
         suffix + "> ?y . ?y <follows" + suffix + "> ?z . ?z <likes" +
         suffix + "> ?w }";
}

// Decoded, sorted solution rows — the canonical form the degradation
// tests compare byte-for-byte against the healthy store.
std::vector<std::vector<std::string>> SortedRows(S2Rdf* db,
                                                 const std::string& query) {
  auto result = db->Execute({.query = query});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  std::vector<std::vector<std::string>> rows =
      db->DecodeRows(result->table);
  std::sort(rows.begin(), rows.end());
  return rows;
}

StatusOr<std::unique_ptr<S2Rdf>> CreatePersisted(const std::string& dir,
                                                 Env* env = nullptr) {
  S2RdfOptions options;
  options.storage_dir = dir;
  options.env = env;
  return S2Rdf::Create(MakeG1(), options);
}

// --- Crash-point matrix --------------------------------------------------

TEST(CrashMatrixTest, EveryCrashPointRecoversToConsistentState) {
  // Pass 1: run the full build once through the fault-injection env to
  // count its mutating I/O ops. The workload is deterministic, so run k
  // of pass 2 sees the identical op sequence.
  uint64_t total_mutations = 0;
  std::vector<std::vector<std::string>> healthy;
  {
    s2rdf::ScopedTempDir dir;
    FaultInjectionEnv env;
    auto db = CreatePersisted(dir.path(), &env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    total_mutations = env.mutation_count();
    // One commit: the segment (2 ops), manifest and CURRENT (4 each).
    ASSERT_EQ(total_mutations, 10u);
    healthy = SortedRows(db->get(), kQ1);
    ASSERT_EQ(healthy.size(), 1u);
  }

  // Pass 2: crash at every point, in both styles, and reboot.
  for (FaultInjectionEnv::CrashStyle style :
       {FaultInjectionEnv::CrashStyle::kClean,
        FaultInjectionEnv::CrashStyle::kTorn}) {
    for (uint64_t k = 0; k < total_mutations; ++k) {
      SCOPED_TRACE("style=" + std::to_string(static_cast<int>(style)) +
                   " crash_after=" + std::to_string(k));
      s2rdf::ScopedTempDir dir;
      FaultInjectionEnv env;
      env.set_crash_style(style);
      env.CrashAfterMutations(k);
      auto db = CreatePersisted(dir.path(), &env);
      // k < total: the build cannot have finished.
      EXPECT_FALSE(db.ok());

      // "Reboot": recover with a healthy environment.
      Catalog catalog(dir.path());
      auto report = catalog.Recover();
      if (report.ok()) {
        // The recovered state must be fully consistent: the atomic
        // write protocol confines torn data to staging files, so no
        // manifest-listed table may fail verification...
        EXPECT_EQ(report->tables_quarantined, 0u);
        // ...the only manifest generation Create saves is 1...
        EXPECT_EQ(report->generation, 1u);
        // ...every materialized table actually loads...
        for (const storage::TableStats* stats : catalog.AllStats()) {
          if (!stats->materialized) continue;
          EXPECT_TRUE(catalog.GetTable(stats->name).ok()) << stats->name;
        }
        // ...no staging debris survives the sweep...
        auto files = s2rdf::ListDir(dir.path());
        ASSERT_TRUE(files.ok());
        for (const std::string& file : *files) {
          EXPECT_FALSE(s2rdf::EndsWith(file, ".tmp")) << file;
        }
        // ...and the store opens and answers as the healthy one does: a
        // recoverable generation's segment holds its dictionary.
        auto reopened = S2Rdf::Open(dir.path());
        ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
        EXPECT_EQ(SortedRows(reopened->get(), kQ1), healthy);
      } else {
        // Acceptable only when the crash predates the first durable
        // manifest generation: the store then never existed.
        EXPECT_EQ(report.status().code(), StatusCode::kNotFound)
            << report.status().ToString();
      }
    }
  }
}

TEST(CrashMatrixTest, CompletedBuildReopensAndAnswersQ1) {
  s2rdf::ScopedTempDir dir;
  FaultInjectionEnv env;
  std::vector<std::vector<std::string>> healthy;
  {
    auto db = CreatePersisted(dir.path(), &env);
    ASSERT_TRUE(db.ok());
    healthy = SortedRows(db->get(), kQ1);
    ASSERT_EQ(healthy.size(), 1u);  // Q1 on G1: x=A, y=B, z=C, w=I2.
  }
  auto reopened = S2Rdf::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery_report().tables_quarantined, 0u);
  EXPECT_GT((*reopened)->recovery_report().tables_verified, 0u);
  EXPECT_EQ(SortedRows(reopened->get(), kQ1), healthy);
}

// --- Graceful degradation ------------------------------------------------

TEST(DegradationTest, CorruptExtVpDegradesToVpWithIdenticalResults) {
  s2rdf::ScopedTempDir dir;
  std::vector<std::vector<std::string>> healthy;
  {
    auto db = CreatePersisted(dir.path());
    ASSERT_TRUE(db.ok());
    healthy = SortedRows(db->get(), kQ1);
    ASSERT_FALSE(healthy.empty());
  }
  ASSERT_GT(testing::CorruptTables(dir.path(), "extvp_"), 0);

  auto db = S2Rdf::Open(dir.path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Startup recovery quarantined the damaged reductions.
  EXPECT_GT((*db)->recovery_report().tables_quarantined, 0u);
  EXPECT_GT((*db)->catalog().corruptions_detected(), 0u);
  // The query silently falls back to the base VP tables — identical
  // solutions (VP ⊇ ExtVP; the extra rows cannot satisfy the joins).
  EXPECT_EQ(SortedRows(db->get(), kQ1), healthy);
  EXPECT_GE((*db)->catalog().queries_degraded(), 1u);
}

// `t` in the S2TB version-1 layout: column blocks without their own
// checksums, guarded only by the file trailer.
std::string Version1Blob(const rdf::Table& t) {
  std::string out("S2TB", 4);
  const uint32_t version = 1;
  out.append(reinterpret_cast<const char*>(&version), 4);
  storage::PutVarint64(&out, t.NumColumns());
  storage::PutVarint64(&out, t.NumRows());
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    const std::string& name = t.column_names()[c];
    storage::PutVarint64(&out, name.size());
    out += name;
    std::string block = storage::EncodeColumn(t.Column(c));
    storage::PutVarint64(&out, block.size());
    out += block;
  }
  const uint64_t checksum = Fnv1a64(out);
  out.append(reinterpret_cast<const char*>(&checksum), 8);
  return out;
}

TEST(DegradationTest, Version1ExtVpRejectedQuarantinedAndDegradesToVp) {
  s2rdf::ScopedTempDir dir;
  std::vector<std::vector<std::string>> healthy;
  {
    auto db = CreatePersisted(dir.path());
    ASSERT_TRUE(db.ok());
    healthy = SortedRows(db->get(), kQ1);
    ASSERT_FALSE(healthy.empty());
  }
  // Rewrite every ExtVP reduction, unchanged, in the version-1 layout:
  // the shorter v1 blob overwrites the head of the table's byte range.
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.LoadManifest().ok());
  size_t rewritten = 0;
  for (const storage::TableStats* stats : catalog.AllStats()) {
    if (!s2rdf::StartsWith(stats->name, "extvp_")) continue;
    std::optional<testing::TableRange> range =
        testing::FindTableRange(catalog, stats->name);
    if (!range.has_value()) continue;
    auto table = catalog.GetTable(stats->name);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    const std::string v1 = Version1Blob(**table);
    Status verified = storage::VerifyTableBlob(v1);
    EXPECT_EQ(verified.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(verified.message().find("version 1"), std::string::npos)
        << verified.ToString();
    EXPECT_EQ(storage::DeserializeTable(v1).status().code(),
              StatusCode::kInvalidArgument);
    ASSERT_LE(v1.size(), range->bytes);
    std::string segment;
    ASSERT_TRUE(s2rdf::ReadFile(range->path, &segment).ok());
    segment.replace(range->offset, v1.size(), v1);
    ASSERT_TRUE(s2rdf::WriteFile(range->path, segment).ok());
    ++rewritten;
  }
  ASSERT_GT(rewritten, 0u);

  auto db = S2Rdf::Open(dir.path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->recovery_report().tables_quarantined, rewritten);
  // Q1 reads the base VP tables instead, with the same answer.
  EXPECT_EQ(SortedRows(db->get(), kQ1), healthy);
  EXPECT_GE((*db)->catalog().queries_degraded(), 1u);
}

TEST(DegradationTest, CorruptVpDegradesToTriplesTable) {
  s2rdf::ScopedTempDir dir;
  const std::string query = "SELECT * WHERE { ?s <likes> ?o }";
  std::vector<std::vector<std::string>> healthy;
  {
    auto db = CreatePersisted(dir.path());
    ASSERT_TRUE(db.ok());
    healthy = SortedRows(db->get(), query);
    ASSERT_EQ(healthy.size(), 3u);
  }
  // Damage every VP table: single-pattern queries then have nothing
  // between VP and the last-resort triples-table layout.
  ASSERT_GT(testing::CorruptTables(dir.path(), "vp_"), 0);

  auto db = S2Rdf::Open(dir.path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_GT((*db)->recovery_report().tables_quarantined, 0u);
  uint64_t degraded_before = (*db)->catalog().queries_degraded();
  // TT ⊇ VP and the scan re-applies the predicate selection: identical
  // solutions out of the triples table.
  EXPECT_EQ(SortedRows(db->get(), query), healthy);
  EXPECT_GT((*db)->catalog().queries_degraded(), degraded_before);
}

// A quarantined VP table degrades a lazy store as it degrades an eager
// one: the lazy pass rebuilds the lost VP rows from the triples table to
// compute the reductions the query needs, instead of failing it.
TEST(DegradationTest, LazyStoreWithQuarantinedVpAnswersLikeEager) {
  const std::string query =
      "SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }";
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy store" : "eager store");
    s2rdf::ScopedTempDir dir;
    {
      rdf::Graph g;
      g.AddIris("A", "follows", "B");
      g.AddIris("B", "follows", "C");
      g.AddIris("C", "follows", "D");
      g.AddIris("B", "likes", "I1");
      g.AddIris("E", "likes", "I2");
      S2RdfOptions options;
      options.storage_dir = dir.path();
      options.lazy_extvp = lazy;
      auto db = S2Rdf::Create(std::move(g), options);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      const rdf::TermId follows =
          *(*db)->graph().dictionary().Find("<follows>");
      ASSERT_TRUE(
          testing::CorruptTable((*db)->catalog(), VpTableName(follows)));
    }
    auto db = S2Rdf::Open(dir.path());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->recovery_report().tables_quarantined, 1u);
    const std::vector<std::vector<std::string>> expected = {
        {"<A>", "<B>", "<I1>"}};
    EXPECT_EQ(SortedRows(db->get(), query), expected);
  }
}

// Also over predicates whose local names end in "_": the fallback table
// must not depend on how a predicate is spelled.
TEST(DegradationTest, MidQueryChecksumFailureFallsBackToVp) {
  for (const std::string suffix : {"", "_"}) {
    SCOPED_TRACE("predicate suffix \"" + suffix + "\"");
    const std::string q1 = Q1Over(suffix);
    s2rdf::ScopedTempDir dir;
    std::vector<std::vector<std::string>> healthy;
    {
      S2RdfOptions options;
      options.storage_dir = dir.path();
      auto db = S2Rdf::Create(MakeG1(suffix), options);
      ASSERT_TRUE(db.ok());
      healthy = SortedRows(db->get(), q1);
      ASSERT_EQ(healthy.size(), 1u);
    }
    // Reopen while the store is healthy (recovery quarantines nothing),
    // then corrupt the reductions behind the running server's back —
    // detected only at load time, mid-query.
    auto db = S2Rdf::Open(dir.path());
    ASSERT_TRUE(db.ok());
    ASSERT_EQ((*db)->recovery_report().tables_quarantined, 0u);
    ASSERT_GT(testing::CorruptTables(dir.path(), "extvp_"), 0);

    EXPECT_EQ(SortedRows(db->get(), q1), healthy);
    EXPECT_EQ((*db)->catalog().queries_degraded(), 1u);
    EXPECT_GT((*db)->catalog().corruptions_detected(), 0u);
    // The corruption is remembered: later queries degrade at compile
    // time.
    EXPECT_EQ(SortedRows(db->get(), q1), healthy);
  }
}

// The one dictionary blob Create committed, which ends its segment, and
// that segment's bytes.
struct DictionaryBlob {
  testing::TableRange range;
  std::string segment;
  std::string bytes() const {
    return segment.substr(range.offset, range.bytes);
  }
};

DictionaryBlob ReadCreatedDictionaryBlob(const std::string& dir) {
  DictionaryBlob blob;
  Catalog catalog(dir);
  EXPECT_TRUE(catalog.LoadManifest().ok());
  std::vector<testing::TableRange> ranges =
      testing::FindDictionaryRanges(catalog);
  EXPECT_EQ(ranges.size(), 1u);
  if (ranges.empty()) return blob;
  blob.range = ranges[0];
  EXPECT_TRUE(s2rdf::ReadFile(blob.range.path, &blob.segment).ok());
  EXPECT_EQ(blob.range.offset + blob.range.bytes, blob.segment.size());
  return blob;
}

TEST(DictionaryFileTest, HeaderlessDictionaryFailsOpen) {
  s2rdf::ScopedTempDir dir;
  ASSERT_TRUE(CreatePersisted(dir.path()).ok());
  // Strip the "S2DICT1\n<16 hex digits>\n" envelope, keeping the
  // serialized terms (zero-padded to the blob's committed length).
  DictionaryBlob blob = ReadCreatedDictionaryBlob(dir.path());
  const std::string bytes = blob.bytes();
  ASSERT_TRUE(s2rdf::StartsWith(bytes, "S2DICT1\n"));
  std::string headerless = bytes.substr(8 + 17);
  headerless.resize(bytes.size(), '\0');
  blob.segment.replace(blob.range.offset, blob.range.bytes, headerless);
  ASSERT_TRUE(s2rdf::WriteFile(blob.range.path, blob.segment).ok());

  auto db = S2Rdf::Open(dir.path());
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().message().find("dictionary blob 1 of 1"),
            std::string::npos)
      << db.status().ToString();
}

TEST(DictionaryFileTest, EnvelopeChecksumIsFnv1a64OfThePayload) {
  s2rdf::ScopedTempDir dir;
  auto db = CreatePersisted(dir.path());
  ASSERT_TRUE(db.ok());
  const std::string blob = ReadCreatedDictionaryBlob(dir.path()).bytes();
  // "S2DICT1\n", the payload's FNV-1a64 as 16 lowercase hex digits, "\n",
  // then the serialized terms.
  ASSERT_GT(blob.size(), 8u + 17u);
  ASSERT_TRUE(s2rdf::StartsWith(blob, "S2DICT1\n"));
  EXPECT_EQ(blob[8 + 16], '\n');
  const std::string_view payload = std::string_view(blob).substr(8 + 17);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(payload)));
  EXPECT_EQ(blob.substr(8, 16), hex);
  rdf::Dictionary dict;
  ASSERT_TRUE(dict.Append(blob).ok());
  EXPECT_EQ(dict.size(), (*db)->graph().dictionary().size());
}

TEST(DictionaryFileTest, TruncatedDictionaryFailsOpen) {
  s2rdf::ScopedTempDir dir;
  ASSERT_TRUE(CreatePersisted(dir.path()).ok());
  const DictionaryBlob blob = ReadCreatedDictionaryBlob(dir.path());
  // Torn segment writes: the payload loses its tail, loses everything, or
  // the envelope itself is cut short. The tables before the blob stay
  // intact.
  for (size_t keep : {blob.range.bytes - 1, size_t{8 + 17}, size_t{8 + 10}}) {
    const std::string torn = blob.segment.substr(0, blob.range.offset + keep);
    ASSERT_TRUE(s2rdf::WriteFile(blob.range.path, torn).ok());
    auto db = S2Rdf::Open(dir.path());
    ASSERT_FALSE(db.ok()) << keep;
    EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument) << keep;
    EXPECT_NE(db.status().message().find("dictionary blob 1 of 1"),
              std::string::npos)
        << db.status().ToString();
  }
}

TEST(DegradationTest, TransientReadErrorsInvisibleToQueries) {
  s2rdf::ScopedTempDir dir;
  std::vector<std::vector<std::string>> healthy;
  {
    auto db = CreatePersisted(dir.path());
    ASSERT_TRUE(db.ok());
    healthy = SortedRows(db->get(), kQ1);
  }
  FaultInjectionEnv env;
  auto db = S2Rdf::Open(dir.path(), 9, &env);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  env.FailNextReads(2);  // EINTR/EIO-style hiccup under the first scan.
  EXPECT_EQ(SortedRows(db->get(), kQ1), healthy);
  EXPECT_EQ((*db)->catalog().corruptions_detected(), 0u);
  EXPECT_EQ((*db)->catalog().queries_degraded(), 0u);
}

TEST(DegradationTest, CountersExposedThroughMetricsRoute) {
  s2rdf::ScopedTempDir dir;
  {
    auto created = CreatePersisted(dir.path());
    ASSERT_TRUE(created.ok());
  }
  ASSERT_GT(testing::CorruptTables(dir.path(), "extvp_"), 0);
  auto db = S2Rdf::Open(dir.path());
  ASSERT_TRUE(db.ok());
  ASSERT_FALSE(SortedRows(db->get(), kQ1).empty());

  server::SparqlEndpoint endpoint(db->get());
  server::HttpRequest request;
  request.method = "GET";
  request.path = "/metrics";
  server::HttpResponse response = endpoint.Handle(request);
  EXPECT_EQ(response.status_code, 200);
  EXPECT_NE(response.body.find("s2rdf_storage_corruptions_detected"),
            std::string::npos);
  EXPECT_NE(response.body.find("s2rdf_recovery_quarantined_tables"),
            std::string::npos);
  // At least one degraded query has been counted by now.
  EXPECT_EQ(response.body.find("s2rdf_queries_degraded 0\n"),
            std::string::npos);
  EXPECT_NE(response.body.find("s2rdf_queries_degraded"), std::string::npos);
}

}  // namespace
}  // namespace s2rdf::core
