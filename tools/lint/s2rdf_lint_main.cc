// s2rdf_lint: repo-invariant linter CLI.
//
//   s2rdf_lint --root=<repo> [--format=text|json|sarif] [subdir...]
//
//   Runs phase 1 (per-file line rules + syntactic model) and phase 2
//   (layering, lock-order, interrupt-coverage, status-discipline,
//   suppression hygiene) over the given subdirs (default: src tests
//   bench tools). Exits 0 only when there are zero findings.
//
// See tools/lint/lint.h for the rules, tools/lint/passes/passes.h for
// the whole-program passes, and DESIGN.md §13 for the architecture.

#include <cstdio>
#include <string>
#include <vector>

#include "analyzer.h"
#include "report.h"

namespace {

bool ConsumeFlag(const std::string& arg, const char* name,
                 std::string* value) {
  std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --root=<repo> [--format=text|json|sarif] "
               "[subdir...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string format = "text";
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (ConsumeFlag(arg, "--root", &value)) {
      root = value;
    } else if (ConsumeFlag(arg, "--format", &value)) {
      format = value;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (format != "text" && format != "json" && format != "sarif") {
    std::fprintf(stderr, "unknown --format: %s\n", format.c_str());
    return Usage(argv[0]);
  }
  if (root.empty()) return Usage(argv[0]);

  s2rdf::lint::AnalyzerOptions options;
  options.root = root;
  options.subdirs = paths.empty()
                        ? std::vector<std::string>{"src", "tests", "bench",
                                                   "tools"}
                        : paths;
  s2rdf::lint::AnalysisResult result = s2rdf::lint::AnalyzeTree(options);

  std::string report;
  if (format == "json") {
    report = s2rdf::lint::RenderJson(result);
  } else if (format == "sarif") {
    report = s2rdf::lint::RenderSarif(result);
  } else {
    report = s2rdf::lint::RenderText(result);
  }
  std::fputs(report.c_str(), format == "text" ? stderr : stdout);
  return result.findings.empty() ? 0 : 1;
}
