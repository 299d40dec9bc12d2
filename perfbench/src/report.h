#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

// What one benchmark run produces, and how it is printed: a human report
// (one line per metric, name and unit), a host block, and as the last
// line of standard output one JSON object with exactly the keys
// correct, attempted, failed and metrics.

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // Scratch space inside the checkout.
};

struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;      // The scored metrics, in order.
  std::vector<std::string> notes;   // Extra human-readable report lines.
  // Counts that must repeat exactly across runs of one seed.
  std::map<std::string, uint64_t> exact_counts;
  std::vector<Span> spans;          // Traced runs only.

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Marks the run wrong and says why.
  void Fail(const std::string& why);
  void Note(const std::string& line) { notes.push_back(line); }
};

// printf-style formatting of up to four numbers, for report lines.
std::string Fmt(const char* format, double a, double b = 0, double c = 0,
                double d = 0);

// "name v1 v2 ..." (each value %.4g), for report lines.
std::string Series(const std::string& name, const std::vector<double>& values);

// Peak resident set of this process so far, MiB (VmHWM).
double PeakRssMb();

// Host block: nproc, CPU model, build type, compiler, git sha, seed and
// the filesystem type of `store_dir`, as one JSON object.
std::string HostBlockJson(const RunConfig& config,
                          const std::string& store_dir);

// Number of online processors.
int Nproc();

// The final result line.
std::string ResultLine(const RunOutput& out);

// Checks `out.exact_counts` against the record a previous run of the
// same workload, seed and binary left in `dir`, or writes that record.
// A mismatch fails the run.
void CheckExactCounts(const RunConfig& config, const std::string& dir,
                      RunOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
