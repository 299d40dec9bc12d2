#ifndef S2RDF_BENCH_BENCH_UTIL_H_
#define S2RDF_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/s2rdf.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

// Shared plumbing for the table/figure reproduction harnesses in bench/.
// Each harness regenerates one table or figure of the paper's Sec. 7;
// EXPERIMENTS.md records paper-vs-measured values side by side.

namespace s2rdf::bench {

// Reads a double from environment variable `name`, else `fallback`
// (e.g. S2RDF_BENCH_SF to scale benchmarks up or down).
double EnvDouble(const char* name, double fallback);
int EnvInt(const char* name, int fallback);

// Milliseconds of wall clock consumed by `fn`.
double TimeMs(const std::function<void()>& fn);

// Runs `fn` `repetitions` times and returns the arithmetic mean in ms
// (AM, the statistic the paper reports).
double MeanMs(int repetitions, const std::function<void()>& fn);

// Bytes the materialized tables whose names start with `prefix` take
// encoded as S2TB blobs — their on-disk footprint. In-memory stores never
// encode, so the table harnesses measure it here.
uint64_t EncodedTableBytes(storage::Catalog* catalog,
                           const std::string& prefix);

// Instantiates a workload query with a deterministic per-(query, round)
// seed so every engine sees the same text.
std::string InstantiateFor(const watdiv::QueryTemplate& tmpl,
                           double scale_factor, uint64_t round);

// Fixed-width table printer for bench output. Harnesses whose stdout
// is machine-readable JSON print their tables to stderr.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print(FILE* out = stdout) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string FormatMs(double ms);
std::string FormatCount(uint64_t n);
std::string FormatBytes(uint64_t bytes);

// Renders an ASCII horizontal bar chart — the terminal rendering of the
// paper's figures. `log_scale` matches the log-axis of Figs. 14/15.
void PrintBarChart(const std::string& title,
                   const std::vector<std::pair<std::string, double>>& series,
                   const std::string& unit, bool log_scale);

// Arithmetic mean helper keyed by category (paper's AM-L, AM-S, ...).
class CategoryMeans {
 public:
  void Add(const std::string& category, double value);
  std::vector<std::pair<std::string, double>> Means() const;

 private:
  std::map<std::string, std::pair<double, int>> sums_;
};

}  // namespace s2rdf::bench

#endif  // S2RDF_BENCH_BENCH_UTIL_H_
