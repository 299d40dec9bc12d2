// Interactive SPARQL shell over S2RDF.
//
//   ./sparql_shell data.nt          # load an N-Triples file
//   ./sparql_shell --watdiv 0.5     # or generate a WatDiv-like dataset
//   ./sparql_shell --open store/    # reopen a persisted store
//
// Enter a SPARQL query terminated by an empty line, or a command:
//   \layout extvp|vp|tt   switch execution layout
//   \format table|json|xml|csv|tsv   result output format
//   \sql                  toggle printing of the compiled SQL
//   \plan                 toggle printing of the physical plan
//   \profile              toggle EXPLAIN ANALYZE (per-operator timings)
//   \tables [prefix]      list catalog tables (optionally filtered)
//   \stats                dataset and catalog statistics
//   \help                 this text
//   \quit                 exit
//
// Files ending in .ttl are parsed as Turtle, everything else as
// N-Triples.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/strings.h"
#include "core/s2rdf.h"
#include "engine/profile.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "sparql/results_io.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace {

void PrintHelp() {
  std::printf(
      "Enter a SPARQL query (finish with an empty line) or a command:\n"
      "  \\layout extvp|vp|tt   switch execution layout\n"
      "  \\format table|json|xml|csv|tsv   result output format\n"
      "  \\sql                  toggle printing of the compiled SQL\n"
      "  \\plan                 toggle printing of the physical plan\n"
      "  \\profile              toggle EXPLAIN ANALYZE output\n"
      "  \\tables [prefix]      list catalog tables\n"
      "  \\stats                dataset and catalog statistics\n"
      "  \\help                 this text\n"
      "  \\quit                 exit\n"
      "PREFIXes wsdbm:, sorg:, gr:, rev:, mo:, gn:, dc:, foaf:, og:, rdf:\n"
      "are added automatically when the query has no prologue.\n");
}

}  // namespace

int main(int argc, char** argv) {
  s2rdf::StatusOr<std::unique_ptr<s2rdf::core::S2Rdf>> db =
      s2rdf::InvalidArgumentError("uninitialized");
  if (argc >= 3 && std::strcmp(argv[1], "--open") == 0) {
    std::printf("reopening persisted store %s...\n", argv[2]);
    db = s2rdf::core::S2Rdf::Open(argv[2]);
  } else {
    s2rdf::rdf::Graph graph;
    if (argc >= 3 && std::strcmp(argv[1], "--watdiv") == 0) {
      s2rdf::watdiv::GeneratorOptions gen;
      gen.scale_factor = std::atof(argv[2]);
      graph = s2rdf::watdiv::Generate(gen);
    } else if (argc >= 2) {
      s2rdf::Status load =
          s2rdf::EndsWith(argv[1], ".ttl")
              ? s2rdf::rdf::LoadTurtleFile(argv[1], &graph)
              : s2rdf::rdf::LoadNTriplesFile(argv[1], &graph);
      if (!load.ok()) {
        std::fprintf(stderr, "%s\n", load.ToString().c_str());
        return 1;
      }
    } else {
      std::printf("no input given; generating WatDiv-like SF 0.1 dataset\n");
      s2rdf::watdiv::GeneratorOptions gen;
      gen.scale_factor = 0.1;
      graph = s2rdf::watdiv::Generate(gen);
    }
    std::printf("loaded %zu triples; building layouts...\n",
                graph.NumTriples());
    s2rdf::core::S2RdfOptions options;
    db = s2rdf::core::S2Rdf::Create(std::move(graph), options);
  }
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("ready (%zu tables). \\help for commands.\n",
              (*db)->catalog().NumMaterializedTables());

  s2rdf::core::Layout layout = s2rdf::core::Layout::kExtVp;
  bool show_sql = false;
  bool show_plan = false;
  std::string format = "table";
  bool show_profile = false;

  std::string line;
  std::string query;
  while (true) {
    std::printf(query.empty() ? "s2rdf> " : "   ...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;

    if (query.empty() && !line.empty() && line[0] == '\\') {
      if (line == "\\quit" || line == "\\q") break;
      if (line == "\\help") {
        PrintHelp();
      } else if (line == "\\sql") {
        show_sql = !show_sql;
        std::printf("SQL printing %s\n", show_sql ? "on" : "off");
      } else if (line == "\\plan") {
        show_plan = !show_plan;
        std::printf("plan printing %s\n", show_plan ? "on" : "off");
      } else if (line == "\\profile") {
        show_profile = !show_profile;
        std::printf("profiling %s\n", show_profile ? "on" : "off");
      } else if (line.rfind("\\format", 0) == 0) {
        for (const char* f : {"table", "json", "xml", "csv", "tsv"}) {
          if (line.find(f) != std::string::npos) format = f;
        }
        std::printf("format set to %s\n", format.c_str());
      } else if (line.rfind("\\layout", 0) == 0) {
        if (line.find("extvp") != std::string::npos) {
          layout = s2rdf::core::Layout::kExtVp;
        } else if (line.find("vp") != std::string::npos) {
          layout = s2rdf::core::Layout::kVp;
        } else if (line.find("tt") != std::string::npos) {
          layout = s2rdf::core::Layout::kTriplesTable;
        }
        std::printf("layout set\n");
      } else if (line.rfind("\\tables", 0) == 0) {
        std::string prefix =
            line.size() > 8 ? line.substr(8) : std::string();
        int shown = 0;
        for (const s2rdf::storage::TableStats* stats :
             (*db)->catalog().AllStats()) {
          if (!prefix.empty() && stats->name.rfind(prefix, 0) != 0) {
            continue;
          }
          if (!stats->materialized) continue;
          std::printf("  %-40s rows=%llu SF=%.3f\n", stats->name.c_str(),
                      static_cast<unsigned long long>(stats->rows),
                      stats->selectivity);
          if (++shown >= 40) {
            std::printf("  ... (more; filter with \\tables <prefix>)\n");
            break;
          }
        }
      } else if (line == "\\stats") {
        std::printf(
            "triples: %zu, dictionary: %zu terms, tables: %zu, "
            "tuples: %llu\n",
            (*db)->graph().NumTriples(),
            (*db)->graph().dictionary().size(),
            (*db)->catalog().NumMaterializedTables(),
            static_cast<unsigned long long>(
                (*db)->catalog().TotalTuples()));
      } else {
        std::printf("unknown command; \\help for help\n");
      }
      continue;
    }

    if (!line.empty()) {
      query += line + "\n";
      continue;
    }
    if (query.empty()) continue;

    // Auto-prepend the WatDiv prefixes when the query has none.
    std::string text = query;
    query.clear();
    if (text.find("PREFIX") == std::string::npos) {
      text = s2rdf::watdiv::PrefixHeader() + text;
    }
    auto result = (*db)->Execute(
        {.query = text,
         .options = {.layout = layout, .collect_profile = show_profile}});
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    // A DESCRIBE without WHERE compiles no plan.
    if (result->plan != nullptr) {
      if (show_sql) std::printf("%s\n", result->plan->ToSql().c_str());
      if (show_plan) std::printf("%s", result->plan->ToString().c_str());
    }
    if (show_profile) {
      std::printf("%s",
                  s2rdf::engine::RenderProfileText(result->profile_data)
                      .c_str());
    }
    if (result->is_graph) {
      std::printf("%s%llu triples in %.2f ms\n",
                  result->graph_ntriples.c_str(),
                  static_cast<unsigned long long>(
                      result->metrics.output_tuples),
                  result->millis);
      continue;
    }
    if (result->is_ask) {
      if (format == "json") {
        std::printf("%s", s2rdf::sparql::AskToJson(result->ask_result)
                              .c_str());
      } else if (format == "xml") {
        std::printf("%s",
                    s2rdf::sparql::AskToXml(result->ask_result).c_str());
      } else {
        std::printf("ASK -> %s (%.2f ms)\n",
                    result->ask_result ? "true" : "false", result->millis);
      }
      continue;
    }
    if (format != "table") {
      const s2rdf::rdf::Dictionary& dict = (*db)->graph().dictionary();
      std::string rendered;
      if (format == "json") {
        rendered = s2rdf::sparql::ResultsToJson(result->table, dict);
      } else if (format == "xml") {
        rendered = s2rdf::sparql::ResultsToXml(result->table, dict);
      } else if (format == "csv") {
        rendered = s2rdf::sparql::ResultsToCsv(result->table, dict);
      } else {
        rendered = s2rdf::sparql::ResultsToTsv(result->table, dict);
      }
      std::printf("%s%zu rows in %.2f ms\n", rendered.c_str(),
                  result->table.NumRows(), result->millis);
      continue;
    }
    auto rows = (*db)->DecodeRows(result->table);
    for (size_t i = 0; i < result->table.column_names().size(); ++i) {
      std::printf("%s?%s", i > 0 ? " | " : "",
                  result->table.column_names()[i].c_str());
    }
    std::printf("\n");
    size_t shown = std::min<size_t>(rows.size(), 50);
    for (size_t i = 0; i < shown; ++i) {
      for (size_t c = 0; c < rows[i].size(); ++c) {
        std::printf("%s%s", c > 0 ? " | " : "",
                    rows[i][c].empty() ? "(unbound)" : rows[i][c].c_str());
      }
      std::printf("\n");
    }
    if (rows.size() > shown) {
      std::printf("... (%zu more rows)\n", rows.size() - shown);
    }
    std::printf("%zu rows in %.2f ms [%s]\n", rows.size(), result->millis,
                result->metrics.ToString().c_str());
  }
  return 0;
}
