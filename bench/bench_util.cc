#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/hash.h"
#include "common/strings.h"
#include "storage/table_file.h"

namespace s2rdf::bench {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  double parsed = 0.0;
  if (!ParseDouble(value, &parsed)) return fallback;
  return parsed;
}

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  long long parsed = 0;
  if (!ParseInt64(value, &parsed)) return fallback;
  return static_cast<int>(parsed);
}

double TimeMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double MeanMs(int repetitions, const std::function<void()>& fn) {
  double total = 0.0;
  for (int i = 0; i < repetitions; ++i) total += TimeMs(fn);
  return total / repetitions;
}

uint64_t EncodedTableBytes(storage::Catalog* catalog,
                           const std::string& prefix) {
  uint64_t bytes = 0;
  for (const storage::TableStats* stats : catalog->AllStats()) {
    if (!stats->materialized || !StartsWith(stats->name, prefix)) continue;
    auto table = catalog->GetTable(stats->name);
    if (table.ok()) bytes += storage::SerializeTable(**table).size();
  }
  return bytes;
}

std::string InstantiateFor(const watdiv::QueryTemplate& tmpl,
                           double scale_factor, uint64_t round) {
  SplitMix64 rng(HashCombine(Fnv1a64(tmpl.name), round));
  return watdiv::InstantiateQuery(tmpl, scale_factor, &rng);
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(FILE* out) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      std::fprintf(out, "%-*s ", static_cast<int>(widths[i] + 1), cell.c_str());
    }
    std::fprintf(out, "\n");
  };
  print_row(headers_);
  size_t total = headers_.size() + 1;
  for (size_t w : widths) total += w + 1;
  std::fprintf(out, "%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string FormatMs(double ms) {
  char buf[64];
  if (ms >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.0f", ms);
  } else if (ms >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f", ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", ms);
  }
  return buf;
}

std::string FormatCount(uint64_t n) {
  if (n >= 10000000) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(n) / 1e6);
    return buf;
  }
  if (n >= 10000) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(n) / 1e3);
    return buf;
  }
  return std::to_string(n);
}

std::string FormatBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2fGB",
                  static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2fMB",
                  static_cast<double>(bytes) / (1ull << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fKB",
                  static_cast<double>(bytes) / (1ull << 10));
  }
  return buf;
}

void PrintBarChart(const std::string& title,
                   const std::vector<std::pair<std::string, double>>& series,
                   const std::string& unit, bool log_scale) {
  if (series.empty()) return;
  std::printf("\n%s\n", title.c_str());
  double max_value = 0.0;
  size_t label_width = 0;
  for (const auto& [label, value] : series) {
    max_value = std::max(max_value, value);
    label_width = std::max(label_width, label.size());
  }
  if (max_value <= 0.0) max_value = 1.0;
  constexpr int kWidth = 50;
  for (const auto& [label, value] : series) {
    double fraction;
    if (log_scale) {
      // Map [1, max] to [0, 1] logarithmically; values below 1 clamp.
      double v = value < 1.0 ? 1.0 : value;
      double m = max_value < 1.0 ? 1.0 : max_value;
      fraction = m <= 1.0 ? 0.0 : std::log(v) / std::log(m);
    } else {
      fraction = value / max_value;
    }
    int bars = static_cast<int>(fraction * kWidth + 0.5);
    std::printf("  %-*s |%-*s %s %s\n", static_cast<int>(label_width),
                label.c_str(), kWidth,
                std::string(static_cast<size_t>(bars), '#').c_str(),
                FormatMs(value).c_str(), unit.c_str());
  }
}

void CategoryMeans::Add(const std::string& category, double value) {
  auto& [sum, count] = sums_[category];
  sum += value;
  ++count;
}

std::vector<std::pair<std::string, double>> CategoryMeans::Means() const {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [category, sum_count] : sums_) {
    out.emplace_back(category, sum_count.first / sum_count.second);
  }
  return out;
}

}  // namespace s2rdf::bench
