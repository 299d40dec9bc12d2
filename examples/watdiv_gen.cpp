// WatDiv-style dataset generator CLI: writes N-Triples, optionally
// builds a persistent S2RDF store alongside (reopen it with
// `sparql_shell --open <dir>`), and can emit the instantiated workload
// queries.
//
//   ./watdiv_gen <scale_factor> <out.nt> [--seed N] [--store <dir>]
//                [--queries <dir>]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/file_util.h"
#include "core/s2rdf.h"
#include "rdf/ntriples.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <scale_factor> <out.nt> [--seed N] "
                 "[--store <dir>] [--queries <dir>]\n",
                 argv[0]);
    return 2;
  }
  s2rdf::watdiv::GeneratorOptions gen;
  gen.scale_factor = std::atof(argv[1]);
  std::string out_path = argv[2];
  std::string store_dir;
  std::string queries_dir;
  for (int i = 3; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      gen.seed = static_cast<uint64_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--store") == 0) {
      store_dir = argv[i + 1];
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      queries_dir = argv[i + 1];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::printf("generating SF %.2f (seed %llu)...\n", gen.scale_factor,
              static_cast<unsigned long long>(gen.seed));
  s2rdf::rdf::Graph graph = s2rdf::watdiv::Generate(gen);
  std::printf("%zu triples, %zu distinct terms\n", graph.NumTriples(),
              graph.dictionary().size());

  s2rdf::Status write =
      s2rdf::WriteFile(out_path, s2rdf::rdf::WriteNTriples(graph));
  if (!write.ok()) {
    std::fprintf(stderr, "%s\n", write.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%llu bytes)\n", out_path.c_str(),
              static_cast<unsigned long long>(
                  s2rdf::FileSizeBytes(out_path)));

  if (!queries_dir.empty()) {
    s2rdf::Status mk = s2rdf::MakeDirs(queries_dir);
    if (!mk.ok()) {
      std::fprintf(stderr, "%s\n", mk.ToString().c_str());
      return 1;
    }
    s2rdf::SplitMix64 rng(gen.seed);
    int written = 0;
    for (const auto* workload :
         {&s2rdf::watdiv::BasicTestingQueries(),
          &s2rdf::watdiv::SelectivityTestingQueries(),
          &s2rdf::watdiv::IncrementalLinearQueries()}) {
      for (const s2rdf::watdiv::QueryTemplate& tmpl : *workload) {
        std::string text = s2rdf::watdiv::InstantiateQuery(
            tmpl, gen.scale_factor, &rng);
        s2rdf::Status s = s2rdf::WriteFile(
            queries_dir + "/" + tmpl.name + ".sparql", text);
        if (!s.ok()) {
          std::fprintf(stderr, "%s\n", s.ToString().c_str());
          return 1;
        }
        ++written;
      }
    }
    std::printf("wrote %d workload queries to %s\n", written,
                queries_dir.c_str());
  }

  if (!store_dir.empty()) {
    std::printf("building persistent store in %s...\n", store_dir.c_str());
    s2rdf::core::S2RdfOptions options;
    options.storage_dir = store_dir;
    options.extvp.sf_threshold = 0.25;
    auto db = s2rdf::core::S2Rdf::Create(std::move(graph), options);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "store ready: %zu tables, %llu tuples, %s on disk; reopen with "
        "sparql_shell --open %s\n",
        (*db)->catalog().NumMaterializedTables(),
        static_cast<unsigned long long>((*db)->catalog().TotalTuples()),
        std::to_string((*db)->catalog().TotalBytes()).c_str(),
        store_dir.c_str());
  }
  return 0;
}
