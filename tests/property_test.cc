#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/centralized_engine.h"
#include "baselines/permutation_index.h"
#include "common/random.h"
#include "core/s2rdf.h"
#include "rdf/graph.h"
#include "sparql/parser.h"
#include "storage/table_file.h"
#include "watdiv/queries.h"

// Randomized property tests: for arbitrary graphs and arbitrary BGP
// queries, every layout and the independent index-based engine agree.
// This catches compiler/selection bugs that the hand-written workloads
// miss (repeated variables, unbound predicates, cross joins, constants
// absent from the data, ...).

namespace s2rdf {
namespace {

rdf::Graph RandomGraph(SplitMix64* rng, int num_entities, int num_predicates,
                       int num_triples) {
  rdf::Graph g;
  for (int i = 0; i < num_triples; ++i) {
    std::string s = "e" + std::to_string(rng->Uniform(num_entities));
    std::string p = "p" + std::to_string(rng->Uniform(num_predicates));
    std::string o = "e" + std::to_string(rng->Uniform(num_entities));
    g.AddIris(s, p, o);
  }
  return g;
}

// A copy of `graph` (Graph is move-only).
rdf::Graph CopyGraph(const rdf::Graph& graph) {
  rdf::Graph copy;
  for (const rdf::Triple& t : graph.triples()) {
    copy.AddCanonical(graph.dictionary().Decode(t.subject),
                      graph.dictionary().Decode(t.predicate),
                      graph.dictionary().Decode(t.object));
  }
  return copy;
}

// Random BGP in SPARQL text form. Variables come from a small pool (so
// patterns connect and repeat); constants are sampled from the graph's
// vocabulary, occasionally from outside it.
std::string RandomBgpQuery(SplitMix64* rng, int num_entities,
                           int num_predicates) {
  int patterns = 1 + static_cast<int>(rng->Uniform(4));
  std::string query = "SELECT * WHERE {\n";
  const char* vars[] = {"?a", "?b", "?c", "?d"};
  auto subject_or_object = [&]() -> std::string {
    uint64_t kind = rng->Uniform(10);
    if (kind < 6) return vars[rng->Uniform(4)];
    if (kind < 9) {
      return "<e" + std::to_string(rng->Uniform(num_entities)) + ">";
    }
    return "<not_in_data>";  // Absent constant.
  };
  auto predicate = [&]() -> std::string {
    uint64_t kind = rng->Uniform(10);
    if (kind < 7) {
      return "<p" + std::to_string(rng->Uniform(num_predicates)) + ">";
    }
    if (kind < 9) return vars[rng->Uniform(4)];  // Unbound predicate.
    return "<p_unused>";
  };
  for (int i = 0; i < patterns; ++i) {
    query += "  " + subject_or_object() + " " + predicate() + " " +
             subject_or_object() + " .\n";
  }
  return query + "}";
}

class RandomBgpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomBgpTest, AllLayoutsAndIndexEngineAgree) {
  SplitMix64 rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const int num_entities = 25;
  const int num_predicates = 6;
  rdf::Graph graph = RandomGraph(&rng, num_entities, num_predicates, 220);
  rdf::Graph baseline_copy = CopyGraph(graph);

  core::S2RdfOptions options;
  options.build_extvp_bitmaps = true;
  auto db = core::S2Rdf::Create(std::move(graph), options);
  ASSERT_TRUE(db.ok());

  baselines::PermutationIndexStore store(baseline_copy);
  baselines::CentralizedBgpEngine centralized(
      &store, &baseline_copy.dictionary());

  for (int q = 0; q < 25; ++q) {
    std::string query = RandomBgpQuery(&rng, num_entities, num_predicates);
    auto reference = (*db)->Execute(
        {.query = query, .options = {.layout = core::Layout::kTriplesTable}});
    ASSERT_TRUE(reference.ok())
        << query << "\n" << reference.status().ToString();
    for (core::Layout layout :
         {core::Layout::kExtVp, core::Layout::kVp,
          core::Layout::kExtVpBitmap}) {
      auto result = (*db)->Execute(
          {.query = query, .options = {.layout = layout}});
      ASSERT_TRUE(result.ok()) << query;
      EXPECT_TRUE(rdf::Table::SameBag(reference->table, result->table))
          << "layout " << static_cast<int>(layout) << " disagrees on\n"
          << query;
    }
    // Independent engine over its own dictionary: compare decoded bags.
    auto central = centralized.Execute(query);
    ASSERT_TRUE(central.ok()) << query;
    ASSERT_EQ(central->table.NumRows(), reference->table.NumRows()) << query;
    auto decode_sorted = [](const rdf::Table& t,
                            const rdf::Dictionary& dict) {
      std::vector<std::string> rows;
      for (size_t r = 0; r < t.NumRows(); ++r) {
        std::string row;
        for (size_t c = 0; c < t.NumColumns(); ++c) {
          row += dict.Decode(t.At(r, c)) + "\x1f";
        }
        rows.push_back(std::move(row));
      }
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    // Column order may differ between engines; compare projected to the
    // reference's column order.
    rdf::Table aligned =
        engine::Project(central->table, reference->table.column_names());
    EXPECT_EQ(decode_sorted(aligned, baseline_copy.dictionary()),
              decode_sorted(reference->table,
                            (*db)->graph().dictionary()))
        << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBgpTest, ::testing::Range(0, 12));

// --- Parser robustness ----------------------------------------------------

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, MutatedQueriesNeverCrash) {
  SplitMix64 rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  // Start from real workload queries and mutate them.
  std::vector<std::string> corpus;
  for (const watdiv::QueryTemplate& tmpl : watdiv::BasicTestingQueries()) {
    SplitMix64 inst(1);
    corpus.push_back(watdiv::InstantiateQuery(tmpl, 1.0, &inst));
  }
  const char kNoise[] = "{}()<>?$.;,\"'\\ |&!=0aZ%\n\t";
  for (int round = 0; round < 60; ++round) {
    std::string text = corpus[rng.Uniform(corpus.size())];
    int mutations = 1 + static_cast<int>(rng.Uniform(8));
    for (int m = 0; m < mutations; ++m) {
      if (text.empty()) break;
      size_t pos = rng.Uniform(text.size());
      switch (rng.Uniform(3)) {
        case 0:  // Replace.
          text[pos] = kNoise[rng.Uniform(sizeof(kNoise) - 1)];
          break;
        case 1:  // Delete a span.
          text.erase(pos, rng.Uniform(10) + 1);
          break;
        default:  // Insert.
          text.insert(pos, 1, kNoise[rng.Uniform(sizeof(kNoise) - 1)]);
      }
    }
    // Must terminate and return a Status — never crash or hang.
    auto parsed = sparql::ParseQuery(text);
    (void)parsed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(0, 8));

// --- Storage robustness -----------------------------------------------------

class StorageFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(StorageFuzzTest, CorruptedTableFilesAreRejectedNotCrashing) {
  SplitMix64 rng(static_cast<uint64_t>(GetParam()) * 31337 + 3);
  rdf::Table t({"s", "o"});
  for (uint32_t i = 0; i < 200; ++i) {
    t.AppendRow({static_cast<uint32_t>(rng.Uniform(50)),
                 static_cast<uint32_t>(rng.Uniform(50))});
  }
  std::string blob = storage::SerializeTable(t);
  for (int round = 0; round < 40; ++round) {
    std::string corrupted = blob;
    int flips = 1 + static_cast<int>(rng.Uniform(5));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(corrupted.size());
      corrupted[pos] = static_cast<char>(rng.Next());
    }
    auto result = storage::DeserializeTable(corrupted);
    if (result.ok()) {
      // Only acceptable if the corruption was a no-op (hit bytes equal).
      EXPECT_TRUE(rdf::Table::SameBag(t, *result));
    }
  }
  // Truncations of every length must be rejected cleanly.
  for (size_t len = 0; len < blob.size(); len += 97) {
    auto result = storage::DeserializeTable(blob.substr(0, len));
    EXPECT_FALSE(result.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageFuzzTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace s2rdf
