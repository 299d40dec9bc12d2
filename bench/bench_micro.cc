// Micro-benchmarks (google-benchmark) for the engine and storage
// primitives that every measured query path is built from: scans,
// filters, hash joins, semi joins (the ExtVP build primitive), distinct,
// columnar encodings, the catalog's table cache, the external sort of the
// MapReduce runtime and the SPARQL result writer. Scans and joins start
// at 8 rows, where the kernels run inline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/random.h"
#include "engine/expression.h"
#include "engine/operators.h"
#include "mapreduce/external_sort.h"
#include "rdf/dictionary.h"
#include "rdf/table.h"
#include "sparql/results_io.h"
#include "storage/catalog.h"
#include "storage/encoding.h"
#include "storage/table_file.h"

namespace s2rdf {
namespace {

rdf::Table MakeTwoColumnTable(size_t rows, uint64_t seed,
                              uint32_t key_space) {
  SplitMix64 rng(seed);
  rdf::Table t({"s", "o"});
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({static_cast<uint32_t>(rng.Uniform(key_space)),
                 static_cast<uint32_t>(rng.Uniform(key_space))});
  }
  return t;
}

void BM_ScanSelectProject(benchmark::State& state) {
  rdf::Table t = MakeTwoColumnTable(
      static_cast<size_t>(state.range(0)), 1, 1000);
  engine::ScanSpec spec;
  spec.conditions.emplace_back(0, 7);
  spec.projections.emplace_back(1, "o");
  for (auto _ : state) {
    engine::ExecContext ctx;
    benchmark::DoNotOptimize(engine::ScanSelectProject(t, spec, &ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanSelectProject)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Range(1 << 10, 1 << 18);

void BM_HashJoin(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  rdf::Table left =
      MakeTwoColumnTable(rows, 1, static_cast<uint32_t>(rows));
  rdf::Table right =
      MakeTwoColumnTable(rows, 2, static_cast<uint32_t>(rows))
          .WithColumnNames({"o", "x"});
  for (auto _ : state) {
    engine::ExecContext ctx;
    benchmark::DoNotOptimize(engine::HashJoin(left, right, &ctx));
  }
  state.SetItemsProcessed(state.iterations() * rows * 2);
}
BENCHMARK(BM_HashJoin)->Arg(8)->Arg(32)->Arg(128)->Range(1 << 10, 1 << 16);

// FILTER over a handful of rows of a store with a large dictionary: the
// verdict memo must cost in proportion to the rows, not to the
// dictionary.
void BM_FilterSmallInputLargeDictionary(benchmark::State& state) {
  rdf::Dictionary dict;
  const auto terms = static_cast<uint32_t>(state.range(0));
  for (uint32_t i = 0; i < terms; ++i) {
    dict.Encode("\"" + std::to_string(i) +
                "\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  }
  SplitMix64 rng(8);
  rdf::Table t({"s", "o"});
  for (int i = 0; i < 16; ++i) {
    t.AppendRow({static_cast<uint32_t>(rng.Uniform(terms)),
                 static_cast<uint32_t>(rng.Uniform(terms))});
  }
  sparql::ExprPtr expr = sparql::Expr::Compare(
      sparql::CompareOp::kLt, sparql::Expr::Var("o"),
      sparql::Expr::Const(
          "\"500\"^^<http://www.w3.org/2001/XMLSchema#integer>"));
  for (auto _ : state) {
    engine::ExecContext ctx;
    benchmark::DoNotOptimize(engine::Filter(t, *expr, dict, &ctx));
  }
  state.SetItemsProcessed(state.iterations() * t.NumRows());
}
BENCHMARK(BM_FilterSmallInputLargeDictionary)->Arg(1 << 20);

void BM_SemiJoin(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  rdf::Table left =
      MakeTwoColumnTable(rows, 1, static_cast<uint32_t>(rows));
  rdf::Table right =
      MakeTwoColumnTable(rows / 4 + 1, 2, static_cast<uint32_t>(rows));
  for (auto _ : state) {
    engine::ExecContext ctx;
    benchmark::DoNotOptimize(engine::SemiJoin(left, 1, right, 0, &ctx));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SemiJoin)->Range(1 << 10, 1 << 18);

void BM_SortMergeJoin(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  rdf::Table left =
      MakeTwoColumnTable(rows, 1, static_cast<uint32_t>(rows));
  rdf::Table right =
      MakeTwoColumnTable(rows, 2, static_cast<uint32_t>(rows))
          .WithColumnNames({"o", "x"});
  for (auto _ : state) {
    engine::ExecContext ctx;
    benchmark::DoNotOptimize(engine::SortMergeJoin(left, right, &ctx));
  }
  state.SetItemsProcessed(state.iterations() * rows * 2);
}
BENCHMARK(BM_SortMergeJoin)->Range(1 << 10, 1 << 16);

void BM_Distinct(benchmark::State& state) {
  rdf::Table t = MakeTwoColumnTable(
      static_cast<size_t>(state.range(0)), 3, 256);
  for (auto _ : state) {
    engine::ExecContext ctx;
    benchmark::DoNotOptimize(engine::Distinct(t, &ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Distinct)->Range(1 << 10, 1 << 16);

void BM_EncodeColumnSorted(benchmark::State& state) {
  std::vector<uint32_t> column;
  for (uint32_t i = 0; i < state.range(0); ++i) column.push_back(i * 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::EncodeColumn(column));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeColumnSorted)->Range(1 << 10, 1 << 18);

void BM_DecodeColumn(benchmark::State& state) {
  SplitMix64 rng(4);
  std::vector<uint32_t> column;
  for (int64_t i = 0; i < state.range(0); ++i) {
    column.push_back(static_cast<uint32_t>(rng.Uniform(100000)));
  }
  std::string block = storage::EncodeColumn(column);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::DecodeColumn(block, &out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeColumn)->Range(1 << 10, 1 << 18);

void BM_TableSerialize(benchmark::State& state) {
  rdf::Table t = MakeTwoColumnTable(
      static_cast<size_t>(state.range(0)), 5, 10000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::SerializeTable(t));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableSerialize)->Range(1 << 10, 1 << 16);

// A catalog cache hit with `range(0)` tables cached, cycling over the
// five most recently used: the lookup and the LRU touch must not grow
// with the number of cached tables.
void BM_CatalogCacheHit(benchmark::State& state) {
  storage::Catalog catalog("");
  const auto tables = static_cast<int>(state.range(0));
  for (int i = 0; i < tables; ++i) {
    (void)catalog.Put("extvp_ss_table_" + std::to_string(i),
                      MakeTwoColumnTable(4, static_cast<uint64_t>(i), 100),
                      0.5);
  }
  std::vector<std::string> hot;
  for (int i = tables - 5; i < tables; ++i) {
    hot.push_back("extvp_ss_table_" + std::to_string(i));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(catalog.GetTable(hot[next]));
    next = (next + 1) % hot.size();
  }
}
BENCHMARK(BM_CatalogCacheHit)->Arg(10)->Arg(1000);

void BM_ExternalSort(benchmark::State& state) {
  ScopedTempDir dir;
  SplitMix64 rng(6);
  std::vector<mapreduce::Record> records;
  for (int64_t i = 0; i < state.range(0); ++i) {
    records.push_back({{static_cast<uint32_t>(rng.Uniform(1000))},
                       {static_cast<uint32_t>(i)}});
  }
  std::string in = dir.path() + "/in.rec";
  (void)mapreduce::WriteRecordFile(in, records);
  std::string out = dir.path() + "/out.rec";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mapreduce::SortRecordFile(in, out, dir.path(), 4096));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExternalSort)->Range(1 << 10, 1 << 15);

// A three-column answer (?user ?product ?value) of `rows` rows in the
// shape of a WatDiv answer: two IRI columns and one of typed and
// language-tagged literals. With `distinct` every cell is its own term;
// otherwise cells repeat terms about as the benchmark's answers do (one
// distinct id per ~43 cells; durable's 37 pass answers at WatDiv SF 1
// repeat 97.8 % of their 459 979 bound cells).
struct Answer {
  rdf::Dictionary dict;
  rdf::Table table{std::vector<std::string>{"user", "product", "value"}};
};

std::unique_ptr<Answer> MakeAnswer(size_t rows, bool distinct) {
  auto answer = std::make_unique<Answer>();
  const uint64_t pool = distinct ? 0 : std::max<uint64_t>(1, rows * 3 / 43);
  SplitMix64 rng(9);
  uint64_t next = 0;
  auto term = [&](int column) {
    const uint64_t n = distinct ? next++ : rng.Uniform(pool);
    const std::string i = std::to_string(n);
    switch (column) {
      case 0:
        return "<http://db.uwaterloo.ca/~galuc/wsdbm/User" + i + ">";
      case 1:
        return "<http://db.uwaterloo.ca/~galuc/wsdbm/Product" + i + ">";
      default:
        return n % 2 == 0
                   ? "\"" + i + "\"^^<http://www.w3.org/2001/XMLSchema#integer>"
                   : "\"caption " + i + "\"@en";
    }
  };
  answer->table.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    answer->table.AppendRow({answer->dict.Encode(term(0)),
                             answer->dict.Encode(term(1)),
                             answer->dict.Encode(term(2))});
  }
  return answer;
}

using ResultWriter = std::string (*)(const rdf::Table&,
                                    const rdf::Dictionary&);

// Args: rows, and 1 when every cell is a distinct term.
template <ResultWriter kWrite>
void BM_ResultsTo(benchmark::State& state) {
  const auto rows = static_cast<size_t>(state.range(0));
  std::unique_ptr<Answer> answer = MakeAnswer(rows, state.range(1) != 0);
  size_t bytes = 0;
  for (auto _ : state) {
    std::string body = kWrite(answer->table, answer->dict);
    bytes = body.size();
    benchmark::DoNotOptimize(body);
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["body_bytes"] = static_cast<double>(bytes);
}

void ResultArgs(benchmark::internal::Benchmark* b) {
  b->ArgsProduct({{8, 1024, 30000}, {0, 1}});
}
BENCHMARK_TEMPLATE(BM_ResultsTo, sparql::ResultsToJson)
    ->Name("BM_ResultsToJson")
    ->Apply(ResultArgs);
BENCHMARK_TEMPLATE(BM_ResultsTo, sparql::ResultsToXml)
    ->Name("BM_ResultsToXml")
    ->Apply(ResultArgs);
BENCHMARK_TEMPLATE(BM_ResultsTo, sparql::ResultsToCsv)
    ->Name("BM_ResultsToCsv")
    ->Apply(ResultArgs);
BENCHMARK_TEMPLATE(BM_ResultsTo, sparql::ResultsToTsv)
    ->Name("BM_ResultsToTsv")
    ->Apply(ResultArgs);

}  // namespace
}  // namespace s2rdf

BENCHMARK_MAIN();
