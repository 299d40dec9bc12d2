// perfbench: the repository benchmark. One invocation runs one workload
// for one seed and prints a human report, a host block and, as the last
// line of standard output, the JSON result:
//
//   perfbench --workload http-short --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// inputs one request at a time with spans around every public call and
// prints the per-layer metrics instead (and writes the spans as a Chrome
// trace next to the build). Workloads: http-short, http-bulk, analytic,
// durable. perfbench/README.md describes them.
//
// Exit codes: 0 when every answer was right, 3 when the result line says
// "correct": false, 2 on a usage error, 1 when the work directory cannot
// be made.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload http-short|http-bulk|analytic|"
               "durable --seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  config.work_dir = ".bench_build/perfbench-work";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || config.seconds <= 0) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", config.work_dir.c_str());
    return 1;
  }

  RunOutput out;
  if (config.workload == "http-short") {
    out = RunHttpShort(config);
  } else if (config.workload == "http-bulk") {
    out = RunHttpBulk(config);
  } else if (config.workload == "analytic") {
    out = RunAnalytic(config);
  } else if (config.workload == "durable") {
    out = RunDurable(config);
  } else {
    return Usage();
  }
  CheckExactCounts(config, config.work_dir, &out);

  std::printf("== perfbench %s seed %llu (%s)\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? "traced: per-layer metrics" : "end-to-end");
  for (const std::string& note : out.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (config.trace) {
    const std::string path = config.work_dir + "/trace-" + config.workload +
                             "-" + std::to_string(config.seed) + ".json";
    std::ofstream(path, std::ios::binary) << RenderChromeTrace(out.spans);
    std::printf("  spans: %zu written to %s (Chrome trace JSON)\n",
                out.spans.size(), path.c_str());
  }
  std::printf("host %s\n", HostBlockJson(config, config.work_dir).c_str());
  std::printf("%s\n", ResultLine(out).c_str());
  std::fflush(stdout);
  // A wrong answer fails the command too, after the result line has said
  // so; the reasons also go to stderr, whose tail a harness that keeps
  // only the result line from stdout still shows.
  if (!out.correct) {
    for (const std::string& note : out.notes) {
      if (note.rfind("FAIL: ", 0) == 0) {
        std::fprintf(stderr, "perfbench: %s\n", note.c_str());
      }
    }
  }
  return out.correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
