#ifndef PERFBENCH_ARITH_H_
#define PERFBENCH_ARITH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

// The benchmark's own arithmetic, kept free of I/O so that
// tests/arith_test.cc can check it in isolation: latency percentiles,
// the knee search over offered rates, the send-lag backlog test, and the
// order-insensitive digest of a SPARQL JSON solution bag.

namespace perfbench {

// A failed or refused operation is recorded with this latency, so it
// lands beyond every percentile and every latency limit.
inline constexpr double kFailedLatency = 1e300;

// One reported percentile of a latency sample.
struct Percentile {
  double q = 0.0;       // 0.5, 0.9, ...
  double value = 0.0;   // Nearest-rank value (kFailedLatency if failed).
  size_t samples = 0;   // Sample count.
  size_t beyond = 0;    // Samples strictly after the chosen rank.
  // At least ten samples lie beyond the chosen rank: a percentile with
  // fewer is one outlier away from another value and is not reported.
  bool reportable = false;
};

// Nearest-rank percentile of `values` (any order; copied and sorted).
// Rank = ceil(q * n), 1-based; the value at that rank is returned.
Percentile ComputePercentile(std::vector<double> values, double q);

// The median over groups (query templates) of each group's median, where
// sample i belongs to group `group_of[i]`. A mix of a few templates has
// gaps in its latency distribution, and the plain median of such a mix
// jumps between templates from run to run; the median template's median
// does not. Groups without samples are skipped.
double MedianOfGroupMedians(const std::vector<double>& values,
                            const std::vector<uint32_t>& group_of,
                            size_t groups);

// Median of `values` (mean of the middle pair for even counts); 0 for
// an empty input.
double Median(std::vector<double> values);

// The best of one reading per segment of a run: the highest when higher
// is better (a rate), else the lowest (a latency); 0 for an empty input.
// The host's other tenants only ever add latency and take capacity away,
// so the calmest segment is the most repeatable reading of the program:
// a host stall moves it only when it spans every segment of the run.
double BestSegment(const std::vector<double>& values, bool higher_is_better);

// --- Generator health ------------------------------------------------------

// True when the send lag of an open-loop step grew: the median lag of
// the last quarter of sends (in schedule order) exceeds the median of
// the first quarter by more than `growth_ms`. A generator that keeps
// up has flat lag; a backlog makes every later send later.
bool LagGrows(const std::vector<double>& lag_ms_in_schedule_order,
              double growth_ms);

// --- Knee search ----------------------------------------------------------

// Outcome of driving one offered rate.
struct RateProbe {
  double rate = 0.0;
  double p90_ms = 0.0;
  double error_rate = 0.0;
  bool backlog = false;
  bool passed = false;  // Filled in by the search.
};

struct KneeOptions {
  double slo_p90_ms = 0.0;      // p90 must stay under this.
  double max_error_rate = 0.01;
  double start_rate = 0.0;      // First rate tried (expected to pass).
  double max_rate = 0.0;        // Never offer more than this.
  // Stop once hi / lo <= 1 + resolution: the knee is known to within
  // this share of its value.
  double resolution = 0.05;
  int max_probes = 12;
};

struct KneeResult {
  // Highest passing offered rate (0 when even start_rate failed).
  double knee = 0.0;
  std::vector<RateProbe> probes;  // In the order they ran.
};

// Finds the highest rate meeting the SLO: grows geometrically (x2) from
// start_rate until a probe fails, then bisects geometrically between the
// last pass and the first failure. `probe` drives one rate and fills
// p90_ms, error_rate and backlog.
KneeResult SearchKnee(const KneeOptions& options,
                      const std::function<RateProbe(double rate)>& probe);

// --- Solution bags ----------------------------------------------------------

// Order-insensitive digest of the rows of a SPARQL 1.1 JSON results
// document: each binding object is hashed as text and the row hashes are
// summed, so any permutation of the rows gives the same digest and a
// change in any row's multiplicity does not.
struct BagDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t sum_sq = 0;  // Second moment: separates {a, b} from {c, d}
                        // pairs that happen to share a sum.
  bool ok = false;      // False when the document has no bindings array.
  bool operator==(const BagDigest& other) const {
    return rows == other.rows && sum == other.sum && sum_sq == other.sum_sq &&
           ok == other.ok;
  }
};

BagDigest DigestSolutionBag(std::string_view json);

// 64-bit FNV-1a followed by a splitmix finalizer.
uint64_t HashBytes(std::string_view bytes);

}  // namespace perfbench

#endif  // PERFBENCH_ARITH_H_
