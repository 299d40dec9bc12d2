#ifndef PERFBENCH_DATASET_H_
#define PERFBENCH_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/ingest.h"

// Inputs of every workload: the WatDiv dataset as N-Triples text and the
// query texts. The dataset is a fixed function of the scale factor (the
// WatDiv generator's own default seed), so every run of a workload loads
// the same store; the run's --seed instantiates the queries, orders the
// requests, picks the triples held back for ingest and picks the sampled
// answers checked in full.

namespace perfbench {

// WatDiv at `scale_factor`, rendered as N-Triples (one triple per line).
std::string WatDivNTriples(double scale_factor);

// Splits N-Triples text: `holdout_batches` batches of `batch_share` of
// the lines each are drawn (seeded) and removed from the base text.
struct HoldoutSplit {
  std::string base;                      // N-Triples of the rest.
  std::vector<std::string> batches;      // N-Triples per batch.
  std::vector<uint64_t> expected_added;  // New triples per batch.
};
HoldoutSplit SplitForIngest(const std::string& ntriples, uint64_t seed,
                            int holdout_batches, double batch_share);

// The 20 Basic Testing templates (paper App. A), each instantiated up to
// `per_template` times with placeholders drawn from `seed`; duplicates
// (templates with few or no placeholders) are dropped. One list per
// template.
std::vector<std::vector<std::string>> BasicQueryPool(uint64_t seed,
                                                     int per_template);

// The Selectivity Testing queries (App. B) whose results stay small
// enough to serve as JSON: all but ST-3-1, ST-5-2 and ST-7-1.
std::vector<std::string> SelectivityQueries();

// The analytic set owned by the benchmark: IL-3 and the three large ST
// BGPs under COUNT, GROUP BY / ORDER BY / LIMIT, COUNT(DISTINCT),
// DISTINCT, FILTER, OPTIONAL and UNION. Each answers at most 100 rows.
std::vector<std::string> AnalyticQueries();

}  // namespace perfbench

#endif  // PERFBENCH_DATASET_H_
