#include "arith.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile ComputePercentile(std::vector<double> values, double q) {
  Percentile p;
  p.q = q;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  p.value = values[rank - 1];
  p.beyond = n - rank;
  p.reportable = p.beyond >= 10;
  return p;
}

double MedianOfGroupMedians(const std::vector<double>& values,
                            const std::vector<uint32_t>& group_of,
                            size_t groups) {
  std::vector<std::vector<double>> by_group(groups);
  for (size_t i = 0; i < values.size() && i < group_of.size(); ++i) {
    by_group[group_of[i]].push_back(values[i]);
  }
  std::vector<double> medians;
  for (const auto& g : by_group) {
    if (!g.empty()) medians.push_back(Median(g));
  }
  return Median(medians);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double BestSegment(const std::vector<double>& values, bool higher_is_better) {
  if (values.empty()) return 0.0;
  return higher_is_better ? *std::max_element(values.begin(), values.end())
                          : *std::min_element(values.begin(), values.end());
}

bool LagGrows(const std::vector<double>& lag_ms, double growth_ms) {
  const size_t quarter = lag_ms.size() / 4;
  if (quarter == 0) return false;
  std::vector<double> head(lag_ms.begin(), lag_ms.begin() + quarter);
  std::vector<double> tail(lag_ms.end() - quarter, lag_ms.end());
  return Median(tail) - Median(head) > growth_ms;
}

KneeResult SearchKnee(const KneeOptions& options,
                      const std::function<RateProbe(double rate)>& probe) {
  KneeResult result;
  auto run = [&](double rate) {
    RateProbe r = probe(rate);
    r.rate = rate;
    r.passed = r.p90_ms < options.slo_p90_ms &&
               r.error_rate <= options.max_error_rate && !r.backlog;
    result.probes.push_back(r);
    return r.passed;
  };
  double lo = 0.0;  // Highest rate known to pass.
  double hi = 0.0;  // Lowest rate known to fail (0 = none yet).
  double rate = options.start_rate;
  // Grow until the first failure (or the cap).
  while (static_cast<int>(result.probes.size()) < options.max_probes) {
    if (run(rate)) {
      lo = rate;
      if (rate >= options.max_rate) break;
      rate = std::min(rate * 2.0, options.max_rate);
    } else {
      hi = rate;
      break;
    }
  }
  if (lo == 0.0 && hi > 0.0) {
    // Even the start rate failed: search downward for a passing rate.
    while (static_cast<int>(result.probes.size()) < options.max_probes &&
           lo == 0.0) {
      rate = hi / 2.0;
      if (run(rate)) {
        lo = rate;
      } else {
        hi = rate;
      }
    }
  }
  // Geometric bisection between the last pass and the first failure.
  while (lo > 0.0 && hi > 0.0 && hi / lo > 1.0 + options.resolution &&
         static_cast<int>(result.probes.size()) < options.max_probes) {
    rate = std::sqrt(lo * hi);
    if (run(rate)) {
      lo = rate;
    } else {
      hi = rate;
    }
  }
  result.knee = lo;
  return result;
}

uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

BagDigest DigestSolutionBag(std::string_view json) {
  BagDigest digest;
  const size_t key = json.find("\"bindings\"");
  if (key == std::string_view::npos) return digest;
  size_t i = json.find('[', key);
  if (i == std::string_view::npos) return digest;
  ++i;
  // Walk the array: each top-level '{' ... '}' is one row. Braces inside
  // string literals (IRIs, literals) are skipped via the escape-aware
  // string state.
  int depth = 0;
  bool in_string = false;
  size_t row_start = 0;
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) row_start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) {
        const uint64_t h = HashBytes(json.substr(row_start, i + 1 - row_start));
        ++digest.rows;
        digest.sum += h;
        digest.sum_sq += h * h;
      }
    } else if (c == ']' && depth == 0) {
      digest.ok = true;
      return digest;
    }
  }
  return digest;
}

}  // namespace perfbench
