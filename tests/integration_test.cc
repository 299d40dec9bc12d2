#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/centralized_engine.h"
#include "baselines/h2rdf_engine.h"
#include "baselines/mr_sparql_engine.h"
#include "baselines/sempala_engine.h"
#include "common/file_util.h"
#include "core/extvp_bitmap.h"
#include "core/layouts.h"
#include "core/s2rdf.h"
#include "storage/catalog.h"
#include "storage/ingest.h"
#include "tests/reference_ops.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

// Cross-engine equivalence: for every workload query, every layout of
// S2RDF and every baseline engine must produce the same solution bag.
// This is the project's strongest correctness property — seven
// independent execution paths (ExtVP, VP, triples table, property table,
// permutation indexes, SHARD-MR, PigSPARQL-MR) agree on a synthetic
// WatDiv dataset.

namespace s2rdf {
namespace {

constexpr double kScaleFactor = 0.05;

struct Engines {
  rdf::Graph graph;
  std::unique_ptr<core::S2Rdf> s2rdf;
  std::unique_ptr<baselines::SempalaEngine> sempala;
  std::unique_ptr<baselines::PermutationIndexStore> store;
  std::unique_ptr<baselines::CentralizedBgpEngine> centralized;
  std::unique_ptr<ScopedTempDir> mr_dir;
  std::unique_ptr<baselines::MrSparqlEngine> shard;
  std::unique_ptr<baselines::MrSparqlEngine> pigsparql;
};

Engines* g_engines = nullptr;

class CrossEngineTest : public ::testing::TestWithParam<std::string> {
 public:
  static void SetUpTestSuite() {
    if (g_engines != nullptr) return;
    g_engines = new Engines();
    watdiv::GeneratorOptions gen;
    gen.scale_factor = kScaleFactor;
    g_engines->graph = watdiv::Generate(gen);

    // S2RDF needs its own copy of the graph (it owns it).
    rdf::Graph copy;
    for (const rdf::Triple& t : g_engines->graph.triples()) {
      copy.AddCanonical(
          g_engines->graph.dictionary().Decode(t.subject),
          g_engines->graph.dictionary().Decode(t.predicate),
          g_engines->graph.dictionary().Decode(t.object));
    }
    auto db = core::S2Rdf::Create(std::move(copy), core::S2RdfOptions());
    ASSERT_TRUE(db.ok());
    g_engines->s2rdf = std::move(*db);

    baselines::SempalaOptions sempala_options;
    auto sempala =
        baselines::SempalaEngine::Create(&g_engines->graph, sempala_options);
    ASSERT_TRUE(sempala.ok());
    g_engines->sempala = std::move(*sempala);

    g_engines->store = std::make_unique<baselines::PermutationIndexStore>(
        g_engines->graph);
    g_engines->centralized =
        std::make_unique<baselines::CentralizedBgpEngine>(
            g_engines->store.get(), &g_engines->graph.dictionary());

    g_engines->mr_dir = std::make_unique<ScopedTempDir>();
    baselines::MrEngineOptions shard_options;
    shard_options.work_dir = g_engines->mr_dir->path();
    shard_options.planner = baselines::MrPlanner::kClauseIteration;
    g_engines->shard = std::make_unique<baselines::MrSparqlEngine>(
        &g_engines->graph, shard_options);
    baselines::MrEngineOptions pig_options = shard_options;
    pig_options.planner = baselines::MrPlanner::kMultiJoin;
    g_engines->pigsparql = std::make_unique<baselines::MrSparqlEngine>(
        &g_engines->graph, pig_options);
  }

 protected:
  // Decodes to strings so tables from different dictionaries compare.
  static std::vector<std::string> Decoded(const rdf::Table& table,
                                          const rdf::Dictionary& dict) {
    std::vector<std::string> rows;
    for (size_t r = 0; r < table.NumRows(); ++r) {
      std::string row;
      for (size_t c = 0; c < table.NumColumns(); ++c) {
        rdf::TermId id = table.At(r, c);
        row += (id == rdf::kNullTermId ? "NULL" : dict.Decode(id));
        row += '\x1f';
      }
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }
};

TEST_P(CrossEngineTest, AllEnginesAgree) {
  const watdiv::QueryTemplate* tmpl = watdiv::FindQuery(GetParam());
  ASSERT_NE(tmpl, nullptr);
  SplitMix64 rng(123);
  std::string query =
      watdiv::InstantiateQuery(*tmpl, kScaleFactor, &rng);

  // Reference: S2RDF over ExtVP.
  auto reference = g_engines->s2rdf->Execute(
      {.query = query, .options = {.layout = core::Layout::kExtVp}});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<std::string> expected =
      Decoded(reference->table, g_engines->s2rdf->graph().dictionary());
  std::vector<std::string> columns = reference->table.column_names();

  // S2RDF over VP, the triples table, and the bit-vector ExtVP.
  for (core::Layout layout :
       {core::Layout::kVp, core::Layout::kTriplesTable,
        core::Layout::kExtVpBitmap}) {
    auto result = g_engines->s2rdf->Execute(
        {.query = query, .options = {.layout = layout}});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->table.column_names(), columns);
    EXPECT_EQ(Decoded(result->table,
                      g_engines->s2rdf->graph().dictionary()),
              expected)
        << "VP/TT layout disagrees on " << GetParam();
  }

  const rdf::Dictionary& dict = g_engines->graph.dictionary();

  auto sempala = g_engines->sempala->Execute(query);
  ASSERT_TRUE(sempala.ok()) << sempala.status().ToString();
  EXPECT_EQ(Decoded(sempala->table, dict), expected)
      << "Sempala disagrees on " << GetParam();

  auto central = g_engines->centralized->Execute(query);
  ASSERT_TRUE(central.ok()) << central.status().ToString();
  EXPECT_EQ(Decoded(central->table, dict), expected)
      << "Centralized disagrees on " << GetParam();

  auto shard = g_engines->shard->Execute(query);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_EQ(Decoded(shard->table, dict), expected)
      << "SHARD disagrees on " << GetParam();

  auto pig = g_engines->pigsparql->Execute(query);
  ASSERT_TRUE(pig.ok()) << pig.status().ToString();
  EXPECT_EQ(Decoded(pig->table, dict), expected)
      << "PigSPARQL disagrees on " << GetParam();
}

std::vector<std::string> AllQueryNames() {
  std::vector<std::string> names;
  for (const auto* workload :
       {&watdiv::BasicTestingQueries(), &watdiv::SelectivityTestingQueries(),
        &watdiv::IncrementalLinearQueries()}) {
    for (const watdiv::QueryTemplate& q : *workload) names.push_back(q.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CrossEngineTest, ::testing::ValuesIn(AllQueryNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- SF-threshold invariance -------------------------------------------

class ThresholdInvarianceTest : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdInvarianceTest, ResultsDoNotDependOnThreshold) {
  watdiv::GeneratorOptions gen;
  gen.scale_factor = 0.03;
  core::S2RdfOptions no_threshold;
  auto reference = core::S2Rdf::Create(watdiv::Generate(gen), no_threshold);
  ASSERT_TRUE(reference.ok());

  core::S2RdfOptions with_threshold;
  with_threshold.extvp.sf_threshold = GetParam();
  auto db = core::S2Rdf::Create(watdiv::Generate(gen), with_threshold);
  ASSERT_TRUE(db.ok());

  SplitMix64 rng(7);
  for (const char* name : {"L2", "S3", "F5", "C3", "ST-1-3", "IL-1-6"}) {
    const watdiv::QueryTemplate* tmpl = watdiv::FindQuery(name);
    ASSERT_NE(tmpl, nullptr);
    SplitMix64 query_rng(rng.Next());
    std::string query =
        watdiv::InstantiateQuery(*tmpl, gen.scale_factor, &query_rng);
    auto expected = (*reference)->Execute(
        {.query = query, .options = {.layout = core::Layout::kExtVp}});
    auto actual = (*db)->Execute(
        {.query = query, .options = {.layout = core::Layout::kExtVp}});
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_TRUE(rdf::Table::SameBag(expected->table, actual->table))
        << name << " differs at threshold " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdInvarianceTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.9));

// --- Lazy vs eager ExtVP on the full workload ------------------------------

TEST(LazyEagerTest, LazyStoreMatchesEagerOnAllWorkloads) {
  watdiv::GeneratorOptions gen;
  gen.scale_factor = 0.04;
  auto eager = core::S2Rdf::Create(watdiv::Generate(gen),
                                   core::S2RdfOptions());
  core::S2RdfOptions lazy_options;
  lazy_options.lazy_extvp = true;
  auto lazy = core::S2Rdf::Create(watdiv::Generate(gen), lazy_options);
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(lazy.ok());
  SplitMix64 rng(41);
  for (const auto* workload :
       {&watdiv::BasicTestingQueries(),
        &watdiv::SelectivityTestingQueries()}) {
    for (const watdiv::QueryTemplate& tmpl : *workload) {
      SplitMix64 query_rng(rng.Next());
      std::string query =
          watdiv::InstantiateQuery(tmpl, gen.scale_factor, &query_rng);
      auto a = (*eager)->Execute(
          {.query = query, .options = {.layout = core::Layout::kExtVp}});
      auto b = (*lazy)->Execute(
          {.query = query, .options = {.layout = core::Layout::kExtVp}});
      ASSERT_TRUE(a.ok()) << tmpl.name;
      ASSERT_TRUE(b.ok()) << tmpl.name;
      EXPECT_TRUE(rdf::Table::SameBag(a->table, b->table)) << tmpl.name;
      // Once warm, the lazy store reads exactly the eager inputs.
      auto warm = (*lazy)->Execute(
          {.query = query, .options = {.layout = core::Layout::kExtVp}});
      ASSERT_TRUE(warm.ok());
      EXPECT_EQ(warm->metrics.input_tuples, a->metrics.input_tuples)
          << tmpl.name;
    }
  }
  EXPECT_GT((*lazy)->lazy_pairs_computed(), 0u);
}

// A disk-backed lazy store that is only queried commits what first use
// computes: the reductions are evictable, so the table cache keeps to its
// budget after every query, and they survive a reopen, which then
// computes none of them again.
TEST(LazyEagerTest, LazyDiskStoreCommitsWhatFirstUseComputes) {
  constexpr uint64_t kBudget = 16 * 1024;
  watdiv::GeneratorOptions gen;
  gen.scale_factor = 0.1;
  ScopedTempDir dir;
  core::S2RdfOptions options;
  options.storage_dir = dir.path();
  options.lazy_extvp = true;
  options.memory_budget_bytes = kBudget;
  auto db = core::S2Rdf::Create(watdiv::Generate(gen), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<std::string> queries;
  SplitMix64 rng(44);
  for (const watdiv::QueryTemplate& tmpl : watdiv::BasicTestingQueries()) {
    SplitMix64 query_rng(rng.Next());
    queries.push_back(
        watdiv::InstantiateQuery(tmpl, gen.scale_factor, &query_rng));
    auto result = (*db)->Execute({.query = queries.back()});
    ASSERT_TRUE(result.ok()) << tmpl.name << ": "
                             << result.status().ToString();
    EXPECT_LE((*db)->catalog().CachedBytes(), kBudget) << tmpl.name;
  }
  std::map<std::string, storage::TableStats> computed;
  for (const auto& [name, stats] : (*db)->catalog().State()->stats) {
    if (name.starts_with("extvp_")) computed.emplace(name, stats);
  }
  EXPECT_GT(computed.size(), 0u);
  EXPECT_EQ(computed.size(), (*db)->lazy_pairs_computed());
  db->reset();

  auto reopened = core::S2Rdf::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const std::shared_ptr<const storage::CatalogState> state =
      (*reopened)->catalog().State();
  for (const auto& [name, want] : computed) {
    const storage::TableStats* got = state->Find(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(got->rows, want.rows) << name;
    EXPECT_EQ(got->selectivity, want.selectivity) << name;
    EXPECT_EQ(got->materialized, want.materialized) << name;
  }
  for (const std::string& query : queries) {
    auto result = (*reopened)->Execute({.query = query});
    ASSERT_TRUE(result.ok()) << query << ": " << result.status().ToString();
  }
  EXPECT_EQ((*reopened)->lazy_pairs_computed(), 0u);
}

// --- An ExtVP oracle independent of the kernel ------------------------------

// Drops the cached copy of every committed table of `catalog`.
void EvictEveryTable(storage::Catalog* catalog) {
  for (const storage::TableStats* stats : catalog->AllStats()) {
    catalog->EvictFromMemory(stats->name);
  }
}

// (SF threshold, on disk).
class ExtVpOracleTest
    : public ::testing::TestWithParam<std::tuple<double, bool>> {};

// Every (corr, p1, p2) of an eager WatDiv store against a row-at-a-time
// semi-join of its VP tables (reference::SemiJoinRows): the store has an
// entry exactly when the reduction is non-empty, with its rows, SF and
// materialization; a stored table holds the reference's rows in VP_p1's
// order; the build's counts agree, and every bitmap over the built state
// sets exactly the reference's rows. On disk the VP tables are committed
// and evicted before each build reads them, as bench_load_table2 loads
// its store.
TEST_P(ExtVpOracleTest, EveryReductionIsARowAtATimeSemiJoin) {
  const auto [threshold, on_disk] = GetParam();
  watdiv::GeneratorOptions gen;
  gen.scale_factor = 0.05;
  const rdf::Graph graph = watdiv::Generate(gen);
  ScopedTempDir dir;
  storage::Catalog catalog(on_disk ? dir.path() : "");
  ASSERT_TRUE(core::BuildVpLayout(graph, &catalog).ok());
  if (on_disk) {
    ASSERT_TRUE(catalog.SaveManifest().ok());
    EvictEveryTable(&catalog);
  }
  core::ExtVpOptions options;
  options.sf_threshold = threshold;
  auto built = core::BuildExtVpLayout(graph, options, &catalog);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  if (on_disk) EvictEveryTable(&catalog);
  const std::shared_ptr<const storage::CatalogState> state = catalog.State();
  auto bitmaps = core::ExtVpBitmapStore::Build(threshold, *state, &catalog);
  ASSERT_TRUE(bitmaps.ok()) << bitmaps.status().ToString();

  std::map<rdf::TermId, std::shared_ptr<const rdf::Table>> vp;
  for (const auto& [name, stats] : state->stats) {
    if (!name.starts_with("vp_")) continue;
    auto table = catalog.GetTable(*state, name);
    ASSERT_TRUE(table.ok()) << name;
    vp.emplace(static_cast<rdf::TermId>(std::stoul(name.substr(3))),
               *table);
  }
  ASSERT_GT(vp.size(), 1u);

  core::ExtVpBuildStats want;
  for (const core::CorrelationRoles& roles : core::kCorrelationRoles) {
    for (const auto& [p1, vp1] : vp) {
      for (const auto& [p2, vp2] : vp) {
        if (roles.corr == core::Correlation::kSS && p1 == p2) continue;
        ++want.tables_considered;
        const std::string name = core::ExtVpTableName(roles.corr, p1, p2);
        const std::vector<size_t> rows =
            reference::SemiJoinRows(*vp1, roles.left, *vp2, roles.right);
        const storage::TableStats* got = state->Find(name);
        const Bitmap* bitmap = (*bitmaps)->Get(roles.corr, p1, p2);
        if (rows.empty()) {
          ++want.tables_empty;
          EXPECT_EQ(got, nullptr) << name;
          EXPECT_TRUE((*bitmaps)->IsEmpty(roles.corr, p1, p2)) << name;
          EXPECT_EQ(bitmap, nullptr) << name;
          continue;
        }
        const bool equal_vp = rows.size() == vp1->NumRows();
        const double sf = equal_vp ? 1.0
                                   : static_cast<double>(rows.size()) /
                                         static_cast<double>(vp1->NumRows());
        const bool stored = !equal_vp && sf < threshold;
        if (stored) {
          ++want.tables_materialized;
          want.tuples_materialized += rows.size();
        } else if (equal_vp) {
          ++want.tables_equal_vp;
        } else {
          ++want.tables_pruned;
        }
        ASSERT_NE(got, nullptr) << name;
        EXPECT_EQ(got->rows, rows.size()) << name;
        EXPECT_EQ(got->selectivity, sf) << name;
        EXPECT_EQ(got->materialized, stored) << name;
        EXPECT_EQ((*bitmaps)->Sf(roles.corr, p1, p2), sf) << name;
        ASSERT_EQ(bitmap != nullptr, stored) << name;
        if (!stored) continue;
        Bitmap want_bits(vp1->NumRows());
        for (size_t r : rows) want_bits.Set(r);
        EXPECT_TRUE(*bitmap == want_bits) << name;
        auto table = catalog.GetTable(*state, name);
        ASSERT_TRUE(table.ok()) << name;
        ASSERT_EQ((*table)->NumRows(), rows.size()) << name;
        for (size_t i = 0; i < rows.size(); ++i) {
          ASSERT_EQ((*table)->At(i, 0), vp1->At(rows[i], 0))
              << name << " row " << i;
          ASSERT_EQ((*table)->At(i, 1), vp1->At(rows[i], 1))
              << name << " row " << i;
        }
      }
    }
  }
  EXPECT_EQ(built->tables_considered, want.tables_considered);
  EXPECT_EQ(built->tables_materialized, want.tables_materialized);
  EXPECT_EQ(built->tables_empty, want.tables_empty);
  EXPECT_EQ(built->tables_equal_vp, want.tables_equal_vp);
  EXPECT_EQ(built->tables_pruned, want.tables_pruned);
  EXPECT_EQ(built->tuples_materialized, want.tuples_materialized);
  EXPECT_EQ((*bitmaps)->NumBitmaps(), want.tables_materialized);
  EXPECT_GT(want.tables_materialized, 0u);
  EXPECT_GT(want.tables_empty, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdsInMemoryAndOnDisk, ExtVpOracleTest,
    ::testing::Combine(::testing::Values(1.0, 0.25), ::testing::Bool()));

// --- One materialization rule across the eager, lazy and bitmap paths ---

class OneRuleTest : public ::testing::TestWithParam<double> {};

// Every reduction a warm lazy store records equals the eager store's
// entry in rows, SF and materialization (a 0-row entry where the eager
// store records none, i.e. the pair is empty), and the SF of every pair
// in the bitmaps over the eager store's state equals the eager one.
TEST_P(OneRuleTest, LazyAndBitmapStoresClassifyLikeTheEagerStore) {
  watdiv::GeneratorOptions gen;
  gen.scale_factor = 0.04;
  core::S2RdfOptions eager_options;
  eager_options.extvp.sf_threshold = GetParam();
  auto eager = core::S2Rdf::Create(watdiv::Generate(gen), eager_options);
  core::S2RdfOptions lazy_options;
  lazy_options.extvp.sf_threshold = GetParam();
  lazy_options.lazy_extvp = true;
  auto lazy = core::S2Rdf::Create(watdiv::Generate(gen), lazy_options);
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(lazy.ok());
  SplitMix64 rng(43);
  for (const auto* workload : {&watdiv::BasicTestingQueries(),
                               &watdiv::SelectivityTestingQueries()}) {
    for (const watdiv::QueryTemplate& tmpl : *workload) {
      SplitMix64 query_rng(rng.Next());
      auto result = (*lazy)->Execute(
          {.query = watdiv::InstantiateQuery(tmpl, gen.scale_factor,
                                             &query_rng)});
      ASSERT_TRUE(result.ok()) << tmpl.name;
    }
  }

  const std::shared_ptr<const storage::CatalogState> lazy_state =
      (*lazy)->catalog().State();
  const std::shared_ptr<const storage::CatalogState> eager_state =
      (*eager)->catalog().State();
  size_t compared = 0;
  for (const auto& [name, got] : lazy_state->stats) {
    if (!name.starts_with("extvp_")) continue;
    ++compared;
    const storage::TableStats* want = eager_state->Find(name);
    if (want == nullptr) {
      EXPECT_EQ(got.rows, 0u) << name;
      EXPECT_FALSE(got.materialized) << name;
      continue;
    }
    EXPECT_EQ(got.rows, want->rows) << name;
    EXPECT_EQ(got.selectivity, want->selectivity) << name;
    EXPECT_EQ(got.materialized, want->materialized) << name;
  }
  EXPECT_EQ(compared, (*lazy)->lazy_pairs_computed());
  EXPECT_GT(compared, 0u);

  // The bitmaps against the eager statistics, over every pair of
  // predicates.
  auto built = core::ExtVpBitmapStore::Build(GetParam(), *eager_state,
                                             &(*eager)->catalog());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const core::ExtVpBitmapStore& bitmaps = **built;
  std::vector<rdf::TermId> predicates;
  for (const auto& [name, stats] : eager_state->stats) {
    if (name.starts_with("vp_")) {
      predicates.push_back(
          static_cast<rdf::TermId>(std::stoul(name.substr(3))));
    }
  }
  ASSERT_FALSE(predicates.empty());
  for (const core::CorrelationRoles& roles : core::kCorrelationRoles) {
    for (rdf::TermId p1 : predicates) {
      for (rdf::TermId p2 : predicates) {
        if (roles.corr == core::Correlation::kSS && p1 == p2) continue;
        const std::string name = core::ExtVpTableName(roles.corr, p1, p2);
        const storage::TableStats* want = eager_state->Find(name);
        EXPECT_EQ(bitmaps.Sf(roles.corr, p1, p2),
                  want == nullptr ? 0.0 : want->selectivity)
            << name;
        EXPECT_EQ(bitmaps.Get(roles.corr, p1, p2) != nullptr,
                  want != nullptr && want->materialized)
            << name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, OneRuleTest,
                         ::testing::Values(1.0, 0.25));

// --- Every layout of an ingested store against a rebuild ------------------

// A solution bag comparable across dictionaries and plans: each row's
// terms in the order of the sorted column names, the rows sorted.
std::vector<std::string> DecodedBag(const rdf::Table& table,
                                    const rdf::Dictionary& dict) {
  const std::vector<std::string>& names = table.column_names();
  std::vector<size_t> columns(names.size());
  for (size_t c = 0; c < columns.size(); ++c) columns[c] = c;
  std::sort(columns.begin(), columns.end(),
            [&](size_t a, size_t b) { return names[a] < names[b]; });
  std::vector<std::string> rows;
  rows.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    std::string row;
    for (size_t c : columns) {
      const rdf::TermId id = table.At(r, c);
      row += names[c] + "=" +
             (id == rdf::kNullTermId ? "NULL" : dict.Decode(id)) + '\x1f';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// 97 % of the WatDiv data builds an in-memory and an on-disk store, the
// rest arrives as two ingest batches, and the disk store is reopened.
// Every template then answers on every layout of both stores as the
// triples table of a fresh rebuild over all the data does.
TEST(IngestedStoreTest, EveryLayoutMatchesARebuildAfterTwoBatchesAndReopen) {
  watdiv::GeneratorOptions gen;
  gen.scale_factor = kScaleFactor;
  const rdf::Graph data = watdiv::Generate(gen);
  const rdf::Dictionary& dict = data.dictionary();
  const std::vector<rdf::Triple>& triples = data.triples();
  auto graph_of = [&](size_t end) {
    rdf::Graph graph;
    for (size_t i = 0; i < end; ++i) {
      graph.AddCanonical(dict.Decode(triples[i].subject),
                         dict.Decode(triples[i].predicate),
                         dict.Decode(triples[i].object));
    }
    return graph;
  };
  auto batch_of = [&](size_t begin, size_t end) {
    storage::IngestBatch batch;
    for (size_t i = begin; i < end; ++i) {
      batch.triples.push_back({dict.Decode(triples[i].subject),
                               dict.Decode(triples[i].predicate),
                               dict.Decode(triples[i].object)});
    }
    return batch;
  };
  const size_t base = triples.size() * 97 / 100;
  const size_t middle = base + (triples.size() - base) / 2;

  ScopedTempDir dir;
  core::S2RdfOptions disk_options;
  disk_options.storage_dir = dir.path();
  auto memory = core::S2Rdf::Create(graph_of(base), core::S2RdfOptions());
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  auto disk = core::S2Rdf::Create(graph_of(base), disk_options);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  for (const auto& [begin, end] :
       {std::pair(base, middle), std::pair(middle, triples.size())}) {
    for (core::S2Rdf* db : {memory->get(), disk->get()}) {
      auto result = db->Ingest(batch_of(begin, end));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_GT(result->triples_added, 0u);
    }
  }
  disk->reset();
  auto reopened = core::S2Rdf::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto rebuild =
      core::S2Rdf::Create(graph_of(triples.size()), core::S2RdfOptions());
  ASSERT_TRUE(rebuild.ok()) << rebuild.status().ToString();

  const std::pair<core::S2Rdf*, const char*> stores[] = {
      {memory->get(), "in-memory store"}, {reopened->get(), "reopened store"}};
  SplitMix64 rng(31);
  for (const std::string& name : AllQueryNames()) {
    const watdiv::QueryTemplate* tmpl = watdiv::FindQuery(name);
    ASSERT_NE(tmpl, nullptr) << name;
    SplitMix64 query_rng(rng.Next());
    const std::string query =
        watdiv::InstantiateQuery(*tmpl, kScaleFactor, &query_rng);
    auto want = (*rebuild)->Execute(
        {.query = query, .options = {.layout = core::Layout::kTriplesTable}});
    ASSERT_TRUE(want.ok()) << name << ": " << want.status().ToString();
    const std::vector<std::string> expected =
        DecodedBag(want->table, (*rebuild)->graph().dictionary());
    for (const auto& [db, store] : stores) {
      for (core::Layout layout :
           {core::Layout::kExtVp, core::Layout::kVp,
            core::Layout::kTriplesTable, core::Layout::kExtVpBitmap}) {
        SCOPED_TRACE(name + " on layout " +
                     std::to_string(static_cast<int>(layout)) + " of the " +
                     store);
        auto got = db->Execute({.query = query, .options = {.layout = layout}});
        EXPECT_TRUE(got.ok()) << got.status().ToString();
        if (!got.ok()) continue;
        EXPECT_EQ(DecodedBag(got->table, db->graph().dictionary()), expected);
      }
    }
  }
}

// --- ExtVP input reduction on real workload ------------------------------

TEST(MetricsShapeTest, ExtVpReadsNoMoreInputThanVp) {
  watdiv::GeneratorOptions gen;
  gen.scale_factor = 0.05;
  auto db = core::S2Rdf::Create(watdiv::Generate(gen), core::S2RdfOptions());
  ASSERT_TRUE(db.ok());
  SplitMix64 rng(3);
  for (const watdiv::QueryTemplate& tmpl :
       watdiv::SelectivityTestingQueries()) {
    SplitMix64 query_rng(rng.Next());
    std::string query =
        watdiv::InstantiateQuery(tmpl, gen.scale_factor, &query_rng);
    auto extvp = (*db)->Execute(
        {.query = query, .options = {.layout = core::Layout::kExtVp}});
    auto vp = (*db)->Execute(
        {.query = query, .options = {.layout = core::Layout::kVp}});
    auto bitmap = (*db)->Execute(
        {.query = query, .options = {.layout = core::Layout::kExtVpBitmap}});
    ASSERT_TRUE(extvp.ok());
    ASSERT_TRUE(vp.ok());
    ASSERT_TRUE(bitmap.ok());
    EXPECT_LE(extvp->metrics.input_tuples, vp->metrics.input_tuples)
        << tmpl.name;
    // Correlation intersection can only help relative to the single
    // best ExtVP table (the paper's unification-strategy conjecture).
    EXPECT_LE(bitmap->metrics.input_tuples, extvp->metrics.input_tuples)
        << tmpl.name;
    EXPECT_TRUE(rdf::Table::SameBag(extvp->table, vp->table)) << tmpl.name;
    EXPECT_TRUE(rdf::Table::SameBag(bitmap->table, vp->table))
        << tmpl.name;
  }
}

}  // namespace
}  // namespace s2rdf
