#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/strings.h"
#include "core/ingest.h"
#include "core/layout_names.h"
#include "core/s2rdf.h"
#include "server/sparql_endpoint.h"
#include "storage/catalog.h"
#include "storage/fault_injection_env.h"
#include "storage/ingest.h"
#include "storage/table_file.h"
#include "tests/counting_env.h"
#include "tests/table_corruption.h"

// Incremental-ingest suite: delta-maintained ExtVP reductions and SF
// statistics must be indistinguishable from a from-scratch rebuild over
// the concatenated triple stream — same stats entries, same row
// contents, same row ORDER — at every generation, whether a batch comes
// through the API, the HTTP endpoint or the bulk loader; and every crash
// point and bit-flip in the ingest path must roll back or commit
// atomically.

namespace s2rdf::core {
namespace {

using storage::Catalog;
using storage::FaultInjectionEnv;
using storage::IngestBatch;
using storage::IngestResult;
using storage::IngestTriple;

// Bare-IRI triple; the canonical term is "<name>".
struct T {
  std::string s, p, o;
};

// The paper's running example graph G1 (Fig. 1).
std::vector<T> G1() {
  return {{"A", "follows", "B"}, {"B", "follows", "C"}, {"B", "follows", "D"},
          {"C", "follows", "D"}, {"A", "likes", "I1"},  {"A", "likes", "I2"},
          {"C", "likes", "I2"}};
}

// Q1 (Fig. 2) plus simpler probes; together they exercise ExtVP, VP and
// TT scans.
constexpr char kQ1[] =
    "SELECT * WHERE { ?x <likes> ?w . ?x <follows> ?y . "
    "?y <follows> ?z . ?z <likes> ?w }";
constexpr char kLikes[] = "SELECT * WHERE { ?s <likes> ?o }";
constexpr char kSpo[] = "SELECT * WHERE { ?s ?p ?o }";

rdf::Graph GraphFrom(const std::vector<T>& triples) {
  rdf::Graph g;
  for (const T& t : triples) g.AddIris(t.s, t.p, t.o);
  return g;
}

IngestBatch MakeBatch(const std::vector<T>& triples) {
  IngestBatch batch;
  for (const T& t : triples) {
    batch.triples.push_back(
        IngestTriple{"<" + t.s + ">", "<" + t.p + ">", "<" + t.o + ">"});
  }
  return batch;
}

std::vector<std::vector<std::string>> SortedRows(
    S2Rdf* db, const std::string& query, Layout layout = Layout::kExtVp) {
  auto result = db->Execute({.query = query, .options = {.layout = layout}});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  std::vector<std::vector<std::string>> rows = db->DecodeRows(result->table);
  std::sort(rows.begin(), rows.end());
  return rows;
}

// A from-scratch in-memory reference store over the full stream.
std::unique_ptr<S2Rdf> Rebuild(const std::vector<T>& stream,
                               double sf_threshold = 1.0) {
  S2RdfOptions options;
  options.extvp.sf_threshold = sf_threshold;
  auto db = S2Rdf::Create(GraphFrom(stream), options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// The oracle: the delta-maintained store and the rebuild must have the
// same statistics entries (rows, SF, materialization decision) and, for
// every materialized table, byte-identical contents in identical row
// order. bytes/segment/offset are storage-representation details and
// ignored.
void ExpectStoresIdentical(S2Rdf* delta, S2Rdf* rebuild) {
  std::map<std::string, const storage::TableStats*> ds, rs;
  for (const storage::TableStats* s : delta->catalog().AllStats()) {
    ds[s->name] = s;
  }
  for (const storage::TableStats* s : rebuild->catalog().AllStats()) {
    rs[s->name] = s;
  }
  for (const auto& [name, stats] : rs) {
    ASSERT_TRUE(ds.contains(name)) << "delta store missing " << name;
  }
  for (const auto& [name, stats] : ds) {
    auto it = rs.find(name);
    ASSERT_TRUE(it != rs.end()) << "delta store has extra entry " << name;
    const storage::TableStats* ref = it->second;
    EXPECT_EQ(stats->rows, ref->rows) << name;
    EXPECT_DOUBLE_EQ(stats->selectivity, ref->selectivity) << name;
    EXPECT_EQ(stats->materialized, ref->materialized) << name;
    if (!stats->materialized || !ref->materialized) continue;
    auto dt = delta->catalog().GetTable(name);
    auto rt = rebuild->catalog().GetTable(name);
    ASSERT_TRUE(dt.ok()) << name << ": " << dt.status().ToString();
    ASSERT_TRUE(rt.ok()) << name << ": " << rt.status().ToString();
    ASSERT_EQ((*dt)->NumRows(), (*rt)->NumRows()) << name;
    ASSERT_EQ((*dt)->NumColumns(), (*rt)->NumColumns()) << name;
    for (size_t r = 0; r < (*dt)->NumRows(); ++r) {
      for (size_t c = 0; c < (*dt)->NumColumns(); ++c) {
        ASSERT_EQ((*dt)->At(r, c), (*rt)->At(r, c))
            << name << " row " << r << " col " << c;
      }
    }
  }
}

// Each query on every layout of `a` against `b`'s answer.
void ExpectSameAnswers(S2Rdf* a, S2Rdf* b) {
  for (const char* q : {kQ1, kLikes, kSpo}) {
    const std::vector<std::vector<std::string>> want = SortedRows(b, q);
    for (Layout layout : {Layout::kExtVp, Layout::kVp, Layout::kTriplesTable,
                          Layout::kExtVpBitmap}) {
      EXPECT_EQ(SortedRows(a, q, layout), want)
          << q << " on layout " << static_cast<int>(layout);
    }
  }
}

// Drops the cached copy of every table of `db`, so that the next read of a
// committed table merges its base blob and patches from disk.
void EvictEveryTable(S2Rdf* db) {
  for (const storage::TableStats* stats : db->catalog().AllStats()) {
    db->catalog().EvictFromMemory(stats->name);
  }
}

// The oracle and the answers as the store serves them, then both again
// with every table read back from disk.
void ExpectIdenticalCachedAndEvicted(S2Rdf* delta, S2Rdf* rebuild) {
  ExpectStoresIdentical(delta, rebuild);
  ExpectSameAnswers(delta, rebuild);
  EvictEveryTable(delta);
  ExpectStoresIdentical(delta, rebuild);
  EvictEveryTable(delta);
  ExpectSameAnswers(delta, rebuild);
}

// G1 plus 400 users U0..U399, each following two others, every fourth
// liking an item, and two pairs who know each other: VP and ExtVP tables
// of hundreds of rows beside G1's and vp_knows' few. A batch of a few
// dozen triples is written as patches of the large tables, where a batch
// over G1 alone rewrites its small tables whole.
std::vector<T> LargeBase() {
  std::vector<T> stream = G1();
  for (int i = 0; i < 400; ++i) {
    const std::string u = "U" + std::to_string(i);
    stream.push_back({u, "follows", "U" + std::to_string((i + 1) % 400)});
    stream.push_back({u, "follows", "U" + std::to_string((i * 7 + 3) % 400)});
    if (i % 4 == 0) {
      stream.push_back({u, "likes", "I" + std::to_string(i % 13)});
    }
  }
  stream.push_back({"U0", "knows", "U1"});
  stream.push_back({"U2", "knows", "U3"});
  return stream;
}

// Batch `tag` (1 or more) over LargeBase: `rows` new users N<tag>_<k>,
// each following U<k>; U<4 tag + 1>, who liked nothing, starting to like
// an item, so the reductions pairing follows with likes gain that user's
// old follows rows (part-1 retro-gains, inside the table); and one row of
// the small vp_knows.
std::vector<T> PatchBatch(int tag, int rows) {
  const std::string prefix = "N" + std::to_string(tag) + "_";
  std::vector<T> batch;
  for (int k = 0; k < rows; ++k) {
    batch.push_back(
        {prefix + std::to_string(k), "follows", "U" + std::to_string(k % 400)});
  }
  batch.push_back(
      {"U" + std::to_string(4 * tag + 1), "likes", "I" + std::to_string(tag)});
  batch.push_back({prefix + "0", "knows", "U" + std::to_string(tag)});
  return batch;
}

// Batch `b` of a growing stream: new subjects and objects joined to G1's
// terms, so every batch grows the triples table, VP tables and ExtVP
// reductions and leaves earlier segments partly dead. Over G1 alone it
// rewrites them whole; over LargeBase it patches the large ones.
std::vector<T> GrowthBatch(int b) {
  const std::string n = "N" + std::to_string(b);
  return {{n, "follows", "A"},
          {"B", "likes", "I" + std::to_string(b)},
          {n, "likes", "I2"},
          {"C", "follows", n}};
}

// The row indices of the newest patch of table `name` (its last extent).
std::vector<uint32_t> NewestPatchRows(const Catalog& catalog,
                                      const std::string& name) {
  const storage::TableStats* stats = catalog.State()->Find(name);
  EXPECT_TRUE(stats != nullptr && stats->extents.size() >= 2) << name;
  if (stats == nullptr || stats->extents.size() < 2) return {};
  std::string blob;
  EXPECT_TRUE(catalog.ReadBlob(stats->extents.back(), &blob).ok()) << name;
  StatusOr<rdf::Table> patch = storage::DeserializeTable(blob);
  EXPECT_TRUE(patch.ok()) << name << ": " << patch.status().ToString();
  if (!patch.ok()) return {};
  return patch->Column(0);
}

// --- Delta maintenance == full rebuild -----------------------------------

TEST(IngestDeltaTest, MatchesFullRebuildAtEveryGeneration) {
  ScopedTempDir dir;
  S2RdfOptions options;
  options.storage_dir = dir.path();
  auto db = S2Rdf::Create(GraphFrom(G1()), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  std::vector<T> stream = G1();
  // Batch 1: growth among existing terms (part-2 delta rows) plus a row
  // that makes old VP rows newly match (part-1 retro-gain).
  // Batch 2: a brand-new predicate and brand-new terms.
  // Batch 3: a subject that demotes an SF=1 pair and retro-connects the
  // new predicate.
  const std::vector<std::vector<T>> batches = {
      {{"D", "follows", "A"}, {"B", "likes", "I1"}},
      {{"A", "knows", "C"}, {"E", "follows", "A"}, {"E", "likes", "I3"}},
      {{"D", "likes", "I2"}, {"C", "knows", "E"}},
  };
  uint64_t expect_gen = 1;
  for (const std::vector<T>& batch : batches) {
    auto result = (*db)->Ingest(MakeBatch(batch));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->triples_in_batch, batch.size());
    EXPECT_EQ(result->triples_added, batch.size());
    EXPECT_EQ(result->generation, ++expect_gen);
    EXPECT_GT(result->vp_tables_updated, 0u);
    // The commit's share of the batch's time: maintenance is the rest.
    EXPECT_GT(result->commit_millis, 0.0);
    EXPECT_LE(result->commit_millis, result->millis);
    stream.insert(stream.end(), batch.begin(), batch.end());
    std::unique_ptr<S2Rdf> reference = Rebuild(stream);
    ExpectIdenticalCachedAndEvicted(db->get(), reference.get());
  }

  // The final state also survives a reopen (tables page in from disk).
  db->reset();
  auto reopened = S2Rdf::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery_report().tables_quarantined, 0u);
  std::unique_ptr<S2Rdf> reference = Rebuild(stream);
  ExpectIdenticalCachedAndEvicted(reopened->get(), reference.get());
}

// Batches over LargeBase whose patches stack into a chain three deep,
// collapse into one patch, and finally outgrow their base: every
// generation matches a rebuild, read from the cache and with every table
// merged from disk, and so does the reopened store.
TEST(IngestDeltaTest, PatchChainsMatchARebuildAfterEviction) {
  ScopedTempDir dir;
  S2RdfOptions options;
  options.storage_dir = dir.path();
  std::vector<T> stream = LargeBase();
  auto db = S2Rdf::Create(GraphFrom(stream), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const Catalog& catalog = (*db)->catalog();
  const rdf::Dictionary& dict = (*db)->graph().dictionary();
  const rdf::TermId follows = *dict.Find("<follows>");
  const rdf::TermId likes = *dict.Find("<likes>");
  const std::string vp_follows = VpTableName(follows);
  const std::string vp_knows = VpTableName(*dict.Find("<knows>"));
  const std::string ss_follows_likes =
      ExtVpTableName(Correlation::kSS, follows, likes);
  // Each batch's follows rows, and the extents vp_follows has after it:
  // three patches that each stay at least twice the next newer one; a
  // fourth that absorbs them all; then one that outweighs the base, so
  // the chain rule rewrites the table whole.
  const std::vector<std::pair<int, size_t>> steps = {
      {240, 2}, {100, 3}, {30, 4}, {30, 2}, {1000, 1}};
  for (size_t i = 0; i < steps.size(); ++i) {
    const int tag = static_cast<int>(i) + 1;
    SCOPED_TRACE("batch " + std::to_string(tag));
    const uint64_t ss_rows_before =
        catalog.State()->Find(ss_follows_likes)->rows;
    const std::vector<T> batch = PatchBatch(tag, steps[i].first);
    auto result = (*db)->Ingest(MakeBatch(batch));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->tables_patched, 0u);
    EXPECT_GT(result->bytes_written, 0u);
    stream.insert(stream.end(), batch.begin(), batch.end());
    EXPECT_EQ(testing::CountExtents(catalog, vp_follows), steps[i].second);
    // The small vp_knows grows by a row whose patch would outweigh its
    // base: it is rewritten whole, into this generation's segment.
    const storage::TableStats* knows = catalog.State()->Find(vp_knows);
    ASSERT_EQ(knows->extents.size(), 1u);
    EXPECT_EQ(knows->extents[0].segment, result->generation);
    EXPECT_GT(result->tables_written_whole, 0u);
    if (tag == 1) {
      // U5's old follows rows now match a likes subject: the patch holds
      // rows inside the table, not only after its old rows.
      const std::vector<uint32_t> rows =
          NewestPatchRows(catalog, ss_follows_likes);
      ASSERT_FALSE(rows.empty());
      EXPECT_LT(rows.front(), ss_rows_before);
    }
    ExpectIdenticalCachedAndEvicted(db->get(), Rebuild(stream).get());
  }

  db->reset();
  auto reopened = S2Rdf::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery_report().tables_quarantined, 0u);
  ExpectIdenticalCachedAndEvicted(reopened->get(), Rebuild(stream).get());
}

TEST(IngestDeltaTest, DuplicatesDropAndFullyDuplicateBatchCommitsNothing) {
  ScopedTempDir dir;
  S2RdfOptions options;
  options.storage_dir = dir.path();
  auto db = S2Rdf::Create(GraphFrom(G1()), options);
  ASSERT_TRUE(db.ok());

  // One new triple, one duplicate of stored data, one internal repeat.
  auto result = (*db)->Ingest(MakeBatch(
      {{"D", "follows", "A"}, {"A", "likes", "I1"}, {"D", "follows", "A"}}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->triples_in_batch, 3u);
  EXPECT_EQ(result->triples_added, 1u);
  EXPECT_EQ(result->generation, 2u);

  // A fully-duplicate batch is a no-op: no manifest flip.
  auto noop = (*db)->Ingest(MakeBatch({{"D", "follows", "A"}}));
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop->triples_added, 0u);
  EXPECT_EQ(noop->commit_millis, 0.0);
  EXPECT_EQ((*db)->catalog().State()->generation, 2u);

  std::vector<T> stream = G1();
  stream.push_back({"D", "follows", "A"});
  std::unique_ptr<S2Rdf> reference = Rebuild(stream);
  ExpectStoresIdentical(db->get(), reference.get());
  ExpectSameAnswers(db->get(), reference.get());
}

TEST(IngestDeltaTest, ThresholdStoreMatchesRebuild) {
  // SF threshold below 1 exercises both decision flips: a reduction
  // crossing under the threshold materializes; one pinned at SF = 1
  // stays stats-only until a batch breaks the full match.
  ScopedTempDir dir;
  S2RdfOptions options;
  options.storage_dir = dir.path();
  options.extvp.sf_threshold = 0.9;
  auto db = S2Rdf::Create(GraphFrom(G1()), options);
  ASSERT_TRUE(db.ok());

  std::vector<T> stream = G1();
  for (const std::vector<T>& batch : std::vector<std::vector<T>>{
           {{"D", "likes", "I2"}},          // breaks SS likes|follows SF=1
           {{"F", "follows", "D"}, {"F", "likes", "I9"}},
       }) {
    auto result = (*db)->Ingest(MakeBatch(batch));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    stream.insert(stream.end(), batch.begin(), batch.end());
    std::unique_ptr<S2Rdf> reference =
        Rebuild(stream, options.extvp.sf_threshold);
    ExpectIdenticalCachedAndEvicted(db->get(), reference.get());
  }
}

TEST(IngestDeltaTest, LazyStoreMaintainsOnlyComputedPairs) {
  ScopedTempDir dir;
  S2RdfOptions options;
  options.storage_dir = dir.path();
  options.lazy_extvp = true;
  auto db = S2Rdf::Create(GraphFrom(G1()), options);
  ASSERT_TRUE(db.ok());
  // Materialize the pairs Q1 needs, then ingest.
  auto before = SortedRows(db->get(), kQ1);
  ASSERT_EQ(before.size(), 1u);
  EXPECT_GT((*db)->lazy_pairs_computed(), 0u);
  // The query committed the pairs it computed: on disk already.
  std::vector<std::string> computed;
  for (const storage::TableStats* stats : (*db)->catalog().AllStats()) {
    if (StartsWith(stats->name, "extvp_") && stats->materialized) {
      EXPECT_FALSE(stats->extents.empty()) << stats->name;
      computed.push_back(stats->name);
    }
  }
  ASSERT_FALSE(computed.empty());

  auto result = (*db)->Ingest(MakeBatch({{"D", "follows", "A"}}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The batch maintained them, and they stay on disk.
  for (const std::string& name : computed) {
    std::optional<storage::TableStats> stats =
        (*db)->catalog().GetStats(name);
    ASSERT_TRUE(stats.has_value()) << name;
    if (stats->materialized) {
      EXPECT_FALSE(stats->extents.empty()) << name;
    }
  }

  // Answers match a lazy rebuild over the full stream.
  std::vector<T> stream = G1();
  stream.push_back({"D", "follows", "A"});
  S2RdfOptions ref_options = options;
  ref_options.storage_dir.clear();
  auto reference = S2Rdf::Create(GraphFrom(stream), ref_options);
  ASSERT_TRUE(reference.ok());
  ExpectSameAnswers(db->get(), reference->get());

  // ...and they survive a reopen.
  db->reset();
  auto reopened = S2Rdf::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (const std::string& name : computed) {
    EXPECT_NE((*reopened)->catalog().State()->Find(name), nullptr) << name;
  }
  ExpectSameAnswers(reopened->get(), reference->get());
}

// Segment files in `dir` by name, with their sizes.
std::map<std::string, uint64_t> SegmentFiles(const std::string& dir) {
  std::map<std::string, uint64_t> segments;
  auto files = ListDir(dir);
  EXPECT_TRUE(files.ok());
  for (const std::string& file : *files) {
    if (StartsWith(file, "segment-")) {
      segments[dir + "/" + file] = FileSizeBytes(dir + "/" + file);
    }
  }
  return segments;
}

// A store directory holds nothing but what commits write: CURRENT,
// "manifest-<g>.tsv" and "segment-<g>.s2seg" files.
void ExpectOnlyCommitFiles(const std::string& dir) {
  auto files = ListDir(dir);
  ASSERT_TRUE(files.ok());
  for (const std::string& file : *files) {
    const bool commit_file =
        file == "CURRENT" ||
        (StartsWith(file, "manifest-") && EndsWith(file, ".tsv")) ||
        (StartsWith(file, "segment-") && EndsWith(file, ".s2seg"));
    EXPECT_TRUE(commit_file) << file;
  }
}

// --- Crash-point matrix over the ingest path -----------------------------

// One deterministic ingest workload: open the pre-built store through
// the fault env and apply the batch.
const std::vector<T>& CrashBatch() {
  static const std::vector<T> batch = {
      {"D", "follows", "A"}, {"E", "likes", "I1"}, {"A", "knows", "C"}};
  return batch;
}

// A store the matrices damage and its batch: `base` is created and the
// `prior` batches ingested, healthy, before the matrix applies `batch`.
struct CrashCase {
  std::vector<T> base;
  std::vector<std::vector<T>> prior;
  std::vector<T> batch;
  // The generation the store is at before `batch`.
  uint64_t generation() const { return 1 + prior.size(); }
};

// Over G1, whose small tables the batch rewrites whole.
CrashCase G1Case() { return {G1(), {}, CrashBatch()}; }

// Over LargeBase after a patching batch: the batch patches tables that
// already carry a patch.
CrashCase PatchedCase() {
  return {LargeBase(), {PatchBatch(1, 240)}, PatchBatch(2, 100)};
}

void BuildCrashBaseStore(const CrashCase& c, const std::string& dir) {
  S2RdfOptions options;
  options.storage_dir = dir;
  auto db = S2Rdf::Create(GraphFrom(c.base), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (const std::vector<T>& batch : c.prior) {
    auto result = (*db)->Ingest(MakeBatch(batch));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
}

void BuildCrashBaseStore(const std::string& dir) {
  BuildCrashBaseStore(G1Case(), dir);
}

// In-memory rebuilds of the store before and after the case's batch.
std::pair<std::unique_ptr<S2Rdf>, std::unique_ptr<S2Rdf>> CrashReferences(
    const CrashCase& c) {
  std::vector<T> stream = c.base;
  for (const std::vector<T>& batch : c.prior) {
    stream.insert(stream.end(), batch.begin(), batch.end());
  }
  std::unique_ptr<S2Rdf> pre = Rebuild(stream);
  stream.insert(stream.end(), c.batch.begin(), c.batch.end());
  return {std::move(pre), Rebuild(stream)};
}

void EveryCrashPointRollsBackOrCommits(const CrashCase& c) {
  // References for the two legal post-recovery states.
  auto [pre_ref, post_ref] = CrashReferences(c);
  const uint64_t pre_gen = c.generation();
  const uint64_t post_gen = pre_gen + 1;

  // Pass 1: count the ingest path's mutating ops on a healthy run.
  uint64_t total_mutations = 0;
  {
    ScopedTempDir dir;
    BuildCrashBaseStore(c, dir.path());
    FaultInjectionEnv env;
    auto db = S2Rdf::Open(dir.path(), 9, &env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto result = (*db)->Ingest(MakeBatch(c.batch));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    total_mutations = env.mutation_count();
    ASSERT_GT(total_mutations, 5u);  // Segment + manifest + CURRENT.
  }

  // Pass 2: crash at every point, in both styles, and reboot.
  for (FaultInjectionEnv::CrashStyle style :
       {FaultInjectionEnv::CrashStyle::kClean,
        FaultInjectionEnv::CrashStyle::kTorn}) {
    for (uint64_t k = 0; k < total_mutations; ++k) {
      SCOPED_TRACE("style=" + std::to_string(static_cast<int>(style)) +
                   " crash_after=" + std::to_string(k));
      ScopedTempDir dir;
      BuildCrashBaseStore(c, dir.path());
      bool committed = false;
      {
        FaultInjectionEnv env;
        env.set_crash_style(style);
        auto db = S2Rdf::Open(dir.path(), 9, &env);
        ASSERT_TRUE(db.ok()) << db.status().ToString();
        env.CrashAfterMutations(k);
        // Crash points past the manifest flip still report success —
        // only best-effort cleanup remains at that point.
        committed = (*db)->Ingest(MakeBatch(c.batch)).ok();
      }
      // "Reboot" with a healthy environment: the store must recover to
      // exactly the generation before the batch (rolled back) or after
      // it (committed), with no quarantine, no staging debris, and tables
      // byte-identical to the corresponding rebuild.
      auto db = S2Rdf::Open(dir.path());
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      const storage::RecoveryReport& report = (*db)->recovery_report();
      EXPECT_EQ(report.tables_quarantined, 0u);
      ASSERT_TRUE(report.generation == pre_gen ||
                  report.generation == post_gen)
          << report.generation;
      if (committed) {
        EXPECT_EQ(report.generation, post_gen);
      }
      auto files = ListDir(dir.path());
      ASSERT_TRUE(files.ok());
      for (const std::string& file : *files) {
        EXPECT_FALSE(EndsWith(file, ".tmp")) << file;
      }
      S2Rdf* expected =
          report.generation == post_gen ? post_ref.get() : pre_ref.get();
      ExpectStoresIdentical(db->get(), expected);
      ExpectSameAnswers(db->get(), expected);
    }
  }
}

TEST(IngestCrashMatrixTest, EveryCrashPointRollsBackOrCommits) {
  EveryCrashPointRollsBackOrCommits(G1Case());
}

// The case's batch, on a healthy run, patches a table that carries a
// patch already.
void ExpectBatchPatchesAPatchedTable(const CrashCase& c) {
  ScopedTempDir dir;
  BuildCrashBaseStore(c, dir.path());
  auto db = S2Rdf::Open(dir.path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto result = (*db)->Ingest(MakeBatch(c.batch));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->tables_patched, 0u);
  size_t longest = 0;
  for (const storage::TableStats* stats : (*db)->catalog().AllStats()) {
    longest = std::max(longest, stats->extents.size());
  }
  EXPECT_GE(longest, 3u);  // A base and two patches.
}

TEST(IngestCrashMatrixTest,
     EveryCrashPointOverPatchedTablesRollsBackOrCommits) {
  ExpectBatchPatchesAPatchedTable(PatchedCase());
  EveryCrashPointRollsBackOrCommits(PatchedCase());
}

void BitFlipAtEveryWriteSiteIsNeverSilent(const CrashCase& c) {
  auto [pre_ref, post_ref] = CrashReferences(c);
  const uint64_t pre_gen = c.generation();
  const uint64_t post_gen = pre_gen + 1;

  uint64_t total_writes = 0;
  {
    ScopedTempDir dir;
    BuildCrashBaseStore(c, dir.path());
    FaultInjectionEnv env;
    auto db = S2Rdf::Open(dir.path(), 9, &env);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Ingest(MakeBatch(c.batch)).ok());
    total_writes = env.write_count();
    ASSERT_EQ(total_writes, 3u);  // The segment, the manifest and CURRENT.
  }

  for (uint64_t k = 0; k < total_writes; ++k) {
    SCOPED_TRACE("flip_write=" + std::to_string(k));
    ScopedTempDir dir;
    BuildCrashBaseStore(c, dir.path());
    {
      FaultInjectionEnv env;
      auto db = S2Rdf::Open(dir.path(), 9, &env);
      ASSERT_TRUE(db.ok());
      env.FlipBitInWrite(k);
      // The write itself reports success; the batch may commit, abort
      // on a later verification, or leave damage for recovery. All are
      // legal — silence about wrong DATA is not.
      (void)(*db)->Ingest(MakeBatch(c.batch));
    }
    // Reboot: the flip must never produce silently wrong data. Either
    // the damage was caught before commit (rollback — answers match the
    // pre reference), or the flip landed in a committed file and
    // recovery's checksum pass detected it (quarantine; queries then
    // degrade to a superset scan or fail loudly, never answer from the
    // corrupt bytes). A clean reopen with nothing quarantined MUST match
    // one of the two references exactly.
    auto db = S2Rdf::Open(dir.path());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const storage::RecoveryReport& report = (*db)->recovery_report();
    ASSERT_TRUE(report.generation == pre_gen || report.generation == post_gen)
        << report.generation;
    S2Rdf* expected =
        report.generation == post_gen ? post_ref.get() : pre_ref.get();
    if (report.tables_quarantined == 0u) {
      ExpectSameAnswers(db->get(), expected);
    } else {
      // Detected corruption: any query that still succeeds (degraded
      // superset scan) must agree with the committed generation.
      for (const char* q : {kQ1, kLikes, kSpo}) {
        auto result = (*db)->Execute({.query = q});
        if (!result.ok()) continue;  // Loud failure is acceptable.
        std::vector<std::vector<std::string>> rows =
            (*db)->DecodeRows(result->table);
        std::sort(rows.begin(), rows.end());
        EXPECT_EQ(rows, SortedRows(expected, q)) << q;
      }
    }
  }
}

TEST(IngestCrashMatrixTest, BitFlipAtEveryWriteSiteIsNeverSilent) {
  BitFlipAtEveryWriteSiteIsNeverSilent(G1Case());
}

TEST(IngestCrashMatrixTest, BitFlipOverPatchedTablesIsNeverSilent) {
  ExpectBatchPatchesAPatchedTable(PatchedCase());
  BitFlipAtEveryWriteSiteIsNeverSilent(PatchedCase());
}

// --- Quarantine interaction (recovery races) -----------------------------

TEST(IngestRecoveryTest, QuarantinedVpReingestedUnderSameName) {
  ScopedTempDir dir;
  std::string vp_likes;
  {
    S2RdfOptions options;
    options.storage_dir = dir.path();
    auto created = S2Rdf::Create(GraphFrom(G1()), options);
    ASSERT_TRUE(created.ok());
    vp_likes =
        VpTableName(*(*created)->graph().dictionary().Find("<likes>"));
  }
  ASSERT_GT(testing::CorruptTables(dir.path(), vp_likes), 0);

  auto db = S2Rdf::Open(dir.path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_GE((*db)->recovery_report().tables_quarantined, 1u);
  ASSERT_TRUE((*db)->catalog().State()->quarantined.contains(vp_likes));

  // Ingest a batch under the quarantined predicate: the pre-batch VP
  // rows are reconstructed from the triples table (byte-identical), so
  // the commit rewrites the table whole — self-healing the quarantine.
  auto result = (*db)->Ingest(MakeBatch({{"D", "likes", "I1"}}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE((*db)->catalog().State()->quarantined.contains(vp_likes));

  std::vector<T> stream = G1();
  stream.push_back({"D", "likes", "I1"});
  std::unique_ptr<S2Rdf> reference = Rebuild(stream);
  ExpectSameAnswers(db->get(), reference.get());

  // A fresh Recover must verify the re-ingested table (no re-quarantine
  // under the same name) and sweep the superseded corrupt file.
  db->reset();
  auto reopened = S2Rdf::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery_report().tables_quarantined, 0u);
  EXPECT_FALSE((*reopened)->catalog().State()->quarantined.contains(vp_likes));
  ExpectStoresIdentical(reopened->get(), reference.get());
  ExpectSameAnswers(reopened->get(), reference.get());
}

TEST(IngestRecoveryTest, CorruptCurrentDictionaryFailsOpen) {
  ScopedTempDir dir;
  {
    S2RdfOptions options;
    options.storage_dir = dir.path();
    auto db = S2Rdf::Create(
        GraphFrom({{"a", "knows", "b"}, {"c", "knows", "d"}}), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto result = (*db)->Ingest(MakeBatch({{"c", "knows", "zz_new_term"}}));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->generation, 2u);
  }
  // Flip one payload byte of the dictionary blob generation 2 committed.
  // Create's blob lacks <zz_new_term>: serving without it would fail to
  // decode the new term's id and let the next ingest reuse that id.
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.LoadManifest().ok());
  const std::vector<testing::TableRange> ranges =
      testing::FindDictionaryRanges(catalog);
  ASSERT_EQ(ranges.size(), 2u);
  const testing::TableRange& range = ranges[1];
  std::string segment;
  ASSERT_TRUE(ReadFile(range.path, &segment).ok());
  segment[range.offset + range.bytes - 2] ^= 0x01;
  ASSERT_TRUE(WriteFile(range.path, segment).ok());

  auto db = S2Rdf::Open(dir.path());
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().message().find("dictionary blob 2 of 2"),
            std::string::npos)
      << db.status().ToString();
}

TEST(IngestRecoveryTest, CorruptUncommittedDictionaryDebrisIsSwept) {
  ScopedTempDir dir;
  std::vector<T> stream = {{"a", "knows", "b"}, {"c", "knows", "d"}};
  {
    S2RdfOptions options;
    options.storage_dir = dir.path();
    auto db = S2Rdf::Create(GraphFrom(stream), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto result = (*db)->Ingest(MakeBatch({{"c", "knows", "zz_new_term"}}));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->generation, 2u);
  }
  stream.push_back({"c", "knows", "zz_new_term"});
  // A batch that died before its commit left generation 3's segment
  // behind, torn inside its dictionary blob. Generation 2, which CURRENT
  // names, does not reference it, so Open removes it unread.
  const std::string debris = dir.path() + "/segment-3.s2seg";
  ASSERT_TRUE(WriteFile(debris, "S2DICT1\n0123").ok());

  auto db = S2Rdf::Open(dir.path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_FALSE(PathExists(debris));
  ExpectSameAnswers(db->get(), Rebuild(stream).get());

  // The next batch writes generation 3's segment afresh.
  auto more = (*db)->Ingest(MakeBatch({{"e", "knows", "zz_newer_term"}}));
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_EQ(more->generation, 3u);
  stream.push_back({"e", "knows", "zz_newer_term"});
  db->reset();
  auto reopened = S2Rdf::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectSameAnswers(reopened->get(), Rebuild(stream).get());
}

TEST(IngestRecoveryTest, GenerationMintingNoTermsReadsThePreviousDictionary) {
  ScopedTempDir dir;
  std::vector<T> stream = G1();
  const std::vector<T> minting = {{"D", "follows", "E"}, {"E", "likes", "I3"}};
  // Every term of this batch is in the dictionary already.
  const std::vector<T> known = {{"E", "follows", "A"}, {"D", "likes", "I3"}};
  {
    S2RdfOptions options;
    options.storage_dir = dir.path();
    auto db = S2Rdf::Create(GraphFrom(stream), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (const std::vector<T>& batch : {minting, known}) {
      auto result = (*db)->Ingest(MakeBatch(batch));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->triples_added, batch.size());
    }
    ASSERT_EQ((*db)->catalog().State()->generation, 3u);
  }
  stream.insert(stream.end(), minting.begin(), minting.end());
  stream.insert(stream.end(), known.begin(), known.end());
  // Generation 3 minted no terms, so it commits no dictionary blob of its
  // own: its manifest lists Create's and generation 2's.
  Catalog catalog(dir.path());
  ASSERT_TRUE(catalog.LoadManifest().ok());
  EXPECT_EQ(catalog.State()->generation, 3u);
  EXPECT_EQ(catalog.State()->dictionary_blobs.size(), 2u);

  auto db = S2Rdf::Open(dir.path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->catalog().State()->generation, 3u);
  EXPECT_TRUE((*db)->graph().dictionary().Find("<I3>").has_value());
  std::unique_ptr<S2Rdf> reference = Rebuild(stream);
  ExpectStoresIdentical(db->get(), reference.get());
  ExpectSameAnswers(db->get(), reference.get());
}

TEST(IngestRecoveryTest, FlippedPatchByteQuarantinesItsTable) {
  ScopedTempDir dir;
  std::vector<T> stream = LargeBase();
  const std::vector<T> batch = PatchBatch(1, 240);
  std::string ss_follows_likes;
  {
    S2RdfOptions options;
    options.storage_dir = dir.path();
    auto db = S2Rdf::Create(GraphFrom(stream), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Ingest(MakeBatch(batch)).ok());
    const rdf::Dictionary& dict = (*db)->graph().dictionary();
    ss_follows_likes = ExtVpTableName(
        Correlation::kSS, *dict.Find("<follows>"), *dict.Find("<likes>"));
  }
  stream.insert(stream.end(), batch.begin(), batch.end());
  // Flip a byte of the reduction's patch; its base stays intact.
  {
    Catalog catalog(dir.path());
    ASSERT_TRUE(catalog.LoadManifest().ok());
    ASSERT_EQ(testing::CountExtents(catalog, ss_follows_likes), 2u);
    ASSERT_TRUE(testing::CorruptTable(catalog, ss_follows_likes, std::nullopt,
                                      0x01, /*extent=*/1));
  }

  auto db = S2Rdf::Open(dir.path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->recovery_report().tables_quarantined, 1u);
  EXPECT_TRUE(
      (*db)->catalog().State()->quarantined.contains(ss_follows_likes));
  // Queries degrade to VP and answer as a rebuild does.
  std::unique_ptr<S2Rdf> reference = Rebuild(stream);
  ExpectSameAnswers(db->get(), reference.get());
  EXPECT_GE((*db)->catalog().queries_degraded(), 1u);
}

TEST(IngestRecoveryTest, DamagedManifestOverAHollowFallbackFailsOpen) {
  ScopedTempDir dir;
  uint64_t generation = 0;
  {
    S2RdfOptions options;
    options.storage_dir = dir.path();
    auto db = S2Rdf::Create(GraphFrom(G1()), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    // A patch would outweigh G1's small tables, so each batch rewrites
    // them whole and older segments die, until a commit compacts a
    // segment the generation before it references: that generation, the
    // fallback, is then hollow.
    for (int b = 0;; ++b) {
      ASSERT_LT(b, 20) << "no batch compacted a segment";
      const std::map<std::string, uint64_t> before = SegmentFiles(dir.path());
      auto result = (*db)->Ingest(MakeBatch(GrowthBatch(b)));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      generation = result->generation;
      const std::map<std::string, uint64_t> after = SegmentFiles(dir.path());
      if (std::any_of(before.begin(), before.end(), [&](const auto& file) {
            return !after.contains(file.first);
          })) {
        break;
      }
    }
  }
  const std::string segment =
      dir.path() + "/segment-" + std::to_string(generation) + ".s2seg";
  ASSERT_TRUE(PathExists(segment));
  const std::string manifest =
      dir.path() + "/manifest-" + std::to_string(generation) + ".tsv";
  std::string content;
  ASSERT_TRUE(ReadFile(manifest, &content).ok());
  content[content.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFile(manifest, content).ok());

  // Recovery falls back to the generation before. It must neither serve
  // that hollow store nor delete the current segment, the only intact
  // copy of the data.
  auto db = S2Rdf::Open(dir.path());
  EXPECT_FALSE(db.ok());
  EXPECT_TRUE(PathExists(segment));
}

TEST(IngestRecoveryTest, DamagedManifestOverAPatchingBatchFallsBackWhole) {
  ScopedTempDir dir;
  const std::vector<T> base = LargeBase();
  {
    S2RdfOptions options;
    options.storage_dir = dir.path();
    auto db = S2Rdf::Create(GraphFrom(base), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto result = (*db)->Ingest(MakeBatch(PatchBatch(1, 240)));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->generation, 2u);
    EXPECT_GT(result->tables_patched, 0u);
  }
  // The batch patched the large tables and compacted nothing: generation
  // 1, the fallback, still finds every blob it references in segment 1.
  const std::string segment_1 = dir.path() + "/segment-1.s2seg";
  const std::string segment_2 = dir.path() + "/segment-2.s2seg";
  ASSERT_TRUE(PathExists(segment_1));
  ASSERT_TRUE(PathExists(segment_2));
  const std::string manifest = dir.path() + "/manifest-2.tsv";
  std::string content;
  ASSERT_TRUE(ReadFile(manifest, &content).ok());
  content[content.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFile(manifest, content).ok());

  auto db = S2Rdf::Open(dir.path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->recovery_report().generation, 1u);
  EXPECT_EQ((*db)->recovery_report().tables_quarantined, 0u);
  std::unique_ptr<S2Rdf> reference = Rebuild(base);
  ExpectIdenticalCachedAndEvicted(db->get(), reference.get());
  // A fallback generation cannot account for segment 2: it stays.
  EXPECT_TRUE(PathExists(segment_2));
}

// The directory listing, sorted.
std::vector<std::string> DirListing(const std::string& dir) {
  auto files = ListDir(dir);
  EXPECT_TRUE(files.ok());
  if (!files.ok()) return {};
  std::sort(files->begin(), files->end());
  return *files;
}

// `manifest` with `line` inserted after its generation line, sealed with
// a checksum that verifies when `reseal`, else with the old one.
std::string WithManifestLine(const std::string& manifest,
                             const std::string& line, bool reseal) {
  const size_t checksum_at = manifest.rfind("# checksum=");
  EXPECT_NE(checksum_at, std::string::npos);
  std::string body = manifest.substr(0, checksum_at);
  body.insert(body.find('\n') + 1, line + "\n");
  if (!reseal) return body + manifest.substr(checksum_at);
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(body)));
  return body + "# checksum=" + checksum + "\n";
}

TEST(IngestRecoveryTest, UnknownManifestDirectiveFailsOpenAndRemovesNothing) {
  ScopedTempDir dir;
  std::string vp_likes;
  {
    S2RdfOptions options;
    options.storage_dir = dir.path();
    auto db = S2Rdf::Create(GraphFrom(G1()), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    vp_likes = VpTableName(*(*db)->graph().dictionary().Find("<likes>"));
    auto result = (*db)->Ingest(MakeBatch(CrashBatch()));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->generation, 2u);
  }
  // A directive this build does not parse: the line a build with
  // deferred ExtVP maintenance wrote for a VP table whose reductions
  // missed triples.
  const std::string directive = "# s2rdf-stale " + vp_likes;
  const std::string manifest = dir.path() + "/manifest-2.tsv";
  std::string content;
  ASSERT_TRUE(ReadFile(manifest, &content).ok());

  // Bytes that fail the checksum are damage: loading falls back to
  // generation 1, whose manifest verifies.
  ASSERT_TRUE(WriteFile(manifest, WithManifestLine(content, directive,
                                                   /*reseal=*/false))
                  .ok());
  {
    Catalog catalog(dir.path());
    ASSERT_TRUE(catalog.LoadManifest().ok());
    EXPECT_EQ(catalog.State()->generation, 1u);
  }

  // Sealed, the manifest is intact but unreadable here: no older
  // generation stands in, and recovery sweeps nothing — not even the
  // staging debris and the orphan segment it would otherwise remove.
  ASSERT_TRUE(WriteFile(manifest, WithManifestLine(content, directive,
                                                   /*reseal=*/true))
                  .ok());
  ASSERT_TRUE(WriteFile(dir.path() + "/segment-3.s2seg", "debris").ok());
  ASSERT_TRUE(WriteFile(dir.path() + "/manifest-3.tsv.tmp", "debris").ok());
  const std::vector<std::string> before = DirListing(dir.path());
  {
    Catalog catalog(dir.path());
    Status loaded = catalog.LoadManifest();
    EXPECT_EQ(loaded.code(), StatusCode::kFailedPrecondition)
        << loaded.ToString();
    EXPECT_EQ(catalog.corruptions_detected(), 0u);
  }
  auto db = S2Rdf::Open(dir.path());
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(db.status().message().find(directive), std::string::npos)
      << db.status().ToString();
  EXPECT_EQ(DirListing(dir.path()), before);
}

TEST(IngestDurabilityTest, ABatchCommitsLikeCreate) {
  ScopedTempDir dir;
  testing::CountingEnv env;
  S2RdfOptions options;
  options.storage_dir = dir.path();
  options.env = &env;
  auto db = S2Rdf::Create(GraphFrom(G1()), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // One commit each: the segment, then the manifest and CURRENT (file and
  // directory sync each), with the dictionary inside the segment.
  EXPECT_EQ(env.syncs, 5u);
  EXPECT_EQ(env.files_written, 3u);
  ExpectOnlyCommitFiles(dir.path());

  env.syncs = 0;
  env.files_written = 0;
  auto result = (*db)->Ingest(MakeBatch(CrashBatch()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->generation, 2u);
  EXPECT_EQ(env.syncs, 5u);
  EXPECT_EQ(env.files_written, 3u);
  ExpectOnlyCommitFiles(dir.path());
}

// --- Space and concurrency over many batches ------------------------------

// Ingests twelve growth batches into a store created over `base`: after
// each, the segment files stay within twice the live bytes — every extent
// of every table, and the dictionary blobs — and after a reopen every
// surviving segment holds a live blob. Returns the most extents a table
// carried.
size_t ExpectSegmentsWithinTwiceTheLiveBytes(const std::vector<T>& base) {
  ScopedTempDir dir;
  S2RdfOptions options;
  options.storage_dir = dir.path();
  auto db = S2Rdf::Create(GraphFrom(base), options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return 0;
  std::vector<T> stream = base;
  size_t longest = 0;
  for (int b = 0; b < 12; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const std::vector<T> batch = GrowthBatch(b);
    auto result = (*db)->Ingest(MakeBatch(batch));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    stream.insert(stream.end(), batch.begin(), batch.end());
    uint64_t on_disk = 0;
    for (const auto& [path, bytes] : SegmentFiles(dir.path())) {
      on_disk += bytes;
    }
    // Live bytes: every extent of every table, and the dictionary blobs.
    uint64_t live = 0;
    for (const storage::TableStats* stats : (*db)->catalog().AllStats()) {
      for (const storage::BlobLocation& at : stats->extents) {
        live += at.bytes;
      }
      longest = std::max(longest, stats->extents.size());
    }
    EXPECT_EQ(live, (*db)->catalog().TotalBytes());
    for (const storage::BlobLocation& at :
         (*db)->catalog().State()->dictionary_blobs) {
      live += at.bytes;
    }
    EXPECT_LE(on_disk, 2 * live);
  }
  db->reset();

  auto reopened = S2Rdf::Open(dir.path());
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
  if (!reopened.ok()) return longest;
  EXPECT_EQ((*reopened)->recovery_report().tables_quarantined, 0u);
  // Every segment that survives recovery holds a live blob: a table's
  // base or patch, or a dictionary blob.
  std::set<std::string> referenced;
  for (const storage::TableStats* stats :
       (*reopened)->catalog().AllStats()) {
    for (const storage::BlobLocation& at : stats->extents) {
      referenced.insert((*reopened)->catalog().SegmentPath(at.segment));
    }
  }
  for (const storage::BlobLocation& at :
       (*reopened)->catalog().State()->dictionary_blobs) {
    referenced.insert((*reopened)->catalog().SegmentPath(at.segment));
  }
  for (const auto& [path, bytes] : SegmentFiles(dir.path())) {
    EXPECT_TRUE(referenced.contains(path)) << path;
  }
  std::unique_ptr<S2Rdf> reference = Rebuild(stream);
  ExpectIdenticalCachedAndEvicted(reopened->get(), reference.get());
  return longest;
}

TEST(IngestSpaceTest, SegmentsStayWithinTwiceTheLiveBytes) {
  // Over G1 every batch rewrites tables whole and commits compact; over
  // LargeBase the large tables carry patches.
  ExpectSegmentsWithinTwiceTheLiveBytes(G1());
  EXPECT_GE(ExpectSegmentsWithinTwiceTheLiveBytes(LargeBase()), 3u);
}

// Readers query the store while batches commit. With the table cache
// capped at one byte every scan reads its table back from the segments,
// so the readers race each commit's manifest flip, copy-forward and
// segment removal; on a lazy store they also stage ExtVP pairs while the
// commits run, and with bitmap readers every other pass builds the
// bitmaps of a state a commit may just have replaced. Every query must
// succeed with the answer of one committed generation — an in-memory
// rebuild of the batch prefix — and once the last batch has committed
// the store must answer as a rebuild does.
enum class IngestMode {
  kEager,
  kLazyStore,
  // An eager store whose readers alternate kExtVp and kExtVpBitmap.
  kBitmapReaders,
};

void QueriesDuringIngest(IngestMode mode,
                         const std::vector<T>& base = G1()) {
  using Rows = std::vector<std::vector<std::string>>;
  constexpr int kBatches = 8;
  const std::vector<const char*> queries = {kQ1, kLikes, kSpo};
  // Every generation's answer to each query.
  std::map<std::string, std::set<Rows>> answers;
  std::vector<T> stream = base;
  for (int b = 0;; ++b) {
    std::unique_ptr<S2Rdf> reference = Rebuild(stream);
    for (const char* q : queries) {
      answers[q].insert(SortedRows(reference.get(), q));
    }
    if (b == kBatches) break;
    const std::vector<T> batch = GrowthBatch(b);
    stream.insert(stream.end(), batch.begin(), batch.end());
  }
  for (const char* q : queries) {
    ASSERT_EQ(answers[q].size(), kBatches + 1u) << q;  // All distinct.
  }

  ScopedTempDir dir;
  S2RdfOptions options;
  options.storage_dir = dir.path();
  options.memory_budget_bytes = 1;
  options.lazy_extvp = mode == IngestMode::kLazyStore;
  auto db = S2Rdf::Create(GraphFrom(base), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  S2Rdf* store = db->get();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> foreign_answers{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (uint64_t pass = 0; !done.load(); ++pass) {
        const Layout layout =
            mode == IngestMode::kBitmapReaders && pass % 2 == 1
                ? Layout::kExtVpBitmap
                : Layout::kExtVp;
        for (const char* q : queries) {
          auto result =
              store->Execute({.query = q, .options = {.layout = layout}});
          if (!result.ok()) {
            failures.fetch_add(1);
          } else {
            Rows rows = store->DecodeRows(result->table);
            std::sort(rows.begin(), rows.end());
            if (!answers.at(q).contains(rows)) foreign_answers.fetch_add(1);
          }
          executed.fetch_add(1);
        }
      }
    });
  }
  for (int b = 0; b < kBatches; ++b) {
    auto result = store->Ingest(MakeBatch(GrowthBatch(b)));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  // Let the readers see the final generation too.
  const uint64_t seen = executed.load();
  while (executed.load() < seen + 6) std::this_thread::yield();
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(foreign_answers.load(), 0u);
  EXPECT_EQ(store->catalog().quarantined_tables(), 0u);

  std::unique_ptr<S2Rdf> reference = Rebuild(stream);
  ExpectSameAnswers(store, reference.get());
  if (mode != IngestMode::kLazyStore) {
    ExpectStoresIdentical(store, reference.get());
  }
}

TEST(IngestConcurrencyTest, QueriesDuringIngestSucceedAndConverge) {
  QueriesDuringIngest(IngestMode::kEager);
}

TEST(IngestConcurrencyTest, LazyStoreQueriesDuringIngestSucceed) {
  QueriesDuringIngest(IngestMode::kLazyStore);
}

TEST(IngestConcurrencyTest, BitmapQueriesDuringIngestSucceedAndConverge) {
  QueriesDuringIngest(IngestMode::kBitmapReaders);
}

// Over LargeBase the batches patch the large tables, so every scan merges
// a base and its patches while commits extend and absorb them.
TEST(IngestConcurrencyTest, QueriesDuringPatchingIngestSucceedAndConverge) {
  QueriesDuringIngest(IngestMode::kEager, LargeBase());
}

// --- Transient reads during ingest ---------------------------------------

TEST(IngestRetryTest, TransientReadFailuresAreRetriedAndCounted) {
  ScopedTempDir dir;
  BuildCrashBaseStore(dir.path());
  FaultInjectionEnv env;
  auto db = S2Rdf::Open(dir.path(), 9, &env);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // No sleeping in tests: the retry path's backoff is injectable.
  Catalog::SetRetrySleepFnForTest([](std::chrono::milliseconds) {});
  env.FailNextReads(2);
  auto result = (*db)->Ingest(MakeBatch({{"D", "follows", "A"}}));
  Catalog::SetRetrySleepFnForTest(nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE((*db)->catalog().read_retries(), 2u);

  std::vector<T> stream = G1();
  stream.push_back({"D", "follows", "A"});
  std::unique_ptr<S2Rdf> reference = Rebuild(stream);
  ExpectStoresIdentical(db->get(), reference.get());
}

// --- The bulk loader ------------------------------------------------------

// `triples` as N-Triples text.
std::string NTriples(const std::vector<T>& triples) {
  std::string text;
  for (const T& t : triples) {
    text += "<" + t.s + "> <" + t.p + "> <" + t.o + "> .\n";
  }
  return text;
}

// Runs the s2rdf_bulkload binary with `args`; returns its exit code and
// puts what it printed in `*output`.
int RunBulkload(const std::string& args, std::string* output) {
  ScopedTempDir temp;
  const std::string out = temp.path() + "/out.txt";
  const std::string command =
      std::string(S2RDF_BULKLOAD) + " " + args + " > '" + out + "' 2>&1";
  const int status = std::system(command.c_str());
  EXPECT_TRUE(ReadFile(out, output).ok());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(IngestBulkloadTest, SmallBatchesMatchARebuild) {
  ScopedTempDir dir;
  ScopedTempDir input;
  {
    S2RdfOptions options;
    options.storage_dir = dir.path();
    ASSERT_TRUE(S2Rdf::Create(GraphFrom(G1()), options).ok());
  }
  std::vector<T> stream = G1();
  std::vector<T> load;
  for (int b = 0; b < 3; ++b) {
    const std::vector<T> batch = GrowthBatch(b);
    load.insert(load.end(), batch.begin(), batch.end());
  }
  const std::string file = input.path() + "/load.nt";
  ASSERT_TRUE(WriteFile(file, NTriples(load)).ok());

  std::string output;
  ASSERT_EQ(RunBulkload("'" + dir.path() + "' --batch-size=5 '" + file + "'",
                        &output),
            0)
      << output;
  // 12 triples in batches of 5: three commits.
  int batches = 0;
  for (const std::string& line : StrSplit(output, '\n')) {
    if (StartsWith(line, "batch ")) ++batches;
  }
  EXPECT_EQ(batches, 3) << output;

  stream.insert(stream.end(), load.begin(), load.end());
  auto reopened = S2Rdf::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->catalog().State()->generation, 4u);
  std::unique_ptr<S2Rdf> reference = Rebuild(stream);
  ExpectStoresIdentical(reopened->get(), reference.get());
  ExpectSameAnswers(reopened->get(), reference.get());
}

TEST(IngestBulkloadTest, UnknownFlagExitsTwoAndCommitsNothing) {
  ScopedTempDir dir;
  ScopedTempDir input;
  {
    S2RdfOptions options;
    options.storage_dir = dir.path();
    ASSERT_TRUE(S2Rdf::Create(GraphFrom(G1()), options).ok());
  }
  const std::string file = input.path() + "/load.nt";
  ASSERT_TRUE(WriteFile(file, NTriples(GrowthBatch(0))).ok());

  std::string output;
  EXPECT_EQ(
      RunBulkload("'" + dir.path() + "' --defer '" + file + "'", &output), 2)
      << output;
  auto reopened = S2Rdf::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->catalog().State()->generation, 1u);
  ExpectSameAnswers(reopened->get(), Rebuild(G1()).get());
}

// --- HTTP surface ---------------------------------------------------------

TEST(IngestHttpTest, PostIngestEndToEndIgnoresRetiredParameters) {
  auto db = S2Rdf::Create(GraphFrom(G1()), S2RdfOptions());
  ASSERT_TRUE(db.ok());
  server::SparqlEndpoint endpoint(db->get());

  server::HttpRequest request;
  request.method = "GET";
  request.path = "/ingest";
  EXPECT_EQ(endpoint.Handle(request).status_code, 405);

  request.method = "POST";
  request.body = "<D> <follows> <A> .\n<A> <likes> <I1> .\n";
  server::HttpResponse response = endpoint.Handle(request);
  EXPECT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("\"triples_in_batch\":2"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"triples_added\":1"), std::string::npos)
      << response.body;  // <A> <likes> <I1> is already stored.
  // What the commit wrote; an in-memory store writes nothing.
  for (const char* field : {"\"bytes_written\":0", "\"tables_patched\":0",
                            "\"tables_written_whole\":0"}) {
    EXPECT_NE(response.body.find(field), std::string::npos) << response.body;
  }
  EXPECT_EQ(SortedRows(db->get(), "SELECT * WHERE { <D> <follows> ?o }")
                .size(),
            1u);
  std::vector<T> stream = G1();
  stream.push_back({"D", "follows", "A"});

  // Query parameters are ignored: a ?defer=1 batch is maintained like
  // any other, and ?refresh=1 with no body posts an empty batch.
  request.query_string = "defer=1";
  request.body = "<E> <likes> <I2> .\n";
  response = endpoint.Handle(request);
  EXPECT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("\"triples_added\":1"), std::string::npos)
      << response.body;
  stream.push_back({"E", "likes", "I2"});
  ExpectStoresIdentical(db->get(), Rebuild(stream).get());

  request.query_string = "refresh=1";
  request.body.clear();
  response = endpoint.Handle(request);
  EXPECT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("\"triples_added\":0"), std::string::npos)
      << response.body;
  ExpectStoresIdentical(db->get(), Rebuild(stream).get());

  // A malformed body fails loudly and is counted.
  request.query_string.clear();
  request.body = "this is not n-triples";
  EXPECT_EQ(endpoint.Handle(request).status_code, 400);

  request.method = "GET";
  request.path = "/metrics";
  request.body.clear();
  response = endpoint.Handle(request);
  EXPECT_EQ(response.status_code, 200);
  // Two POSTs committed a generation; the empty one committed none.
  EXPECT_NE(response.body.find("s2rdf_ingest_batches_total 2"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("s2rdf_ingest_failures_total 1"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("s2rdf_read_retries_total"),
            std::string::npos);
  EXPECT_EQ(response.body.find("s2rdf_stale"), std::string::npos)
      << response.body;
}

}  // namespace
}  // namespace s2rdf::core
