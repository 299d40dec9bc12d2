#ifndef S2RDF_TOOLS_LINT_LINT_H_
#define S2RDF_TOOLS_LINT_LINT_H_

#include <string>
#include <vector>

// Repo-invariant linter for the S2RDF codebase. Each rule protects an
// invariant the design depends on (see DESIGN.md "Static enforcement"):
//
//   raw-io          All file I/O must flow through the injectable
//                   Env seam (common/env.h) so fault-injection tests
//                   cover it. Raw primitives (fopen, std::ofstream,
//                   ::open, ...) are permitted only in the Env
//                   implementation itself (common/posix_env.cc,
//                   common/env.cc).
//   raw-file-mutation
//                   rename/unlink are the commit-protocol primitives
//                   (atomic manifest flips, orphan sweeps); called
//                   directly they evade fault injection and can break
//                   crash atomicity, so they are permitted only under
//                   common/ (Env implementations) and storage/ (the
//                   layer owning the commit protocol).
//   bare-mutex      Locking must use the annotated common::Mutex
//                   wrappers so Clang thread-safety analysis sees every
//                   acquisition. std::mutex & friends are permitted
//                   only inside common/mutex.h.
//   nondeterminism  Reproducible runs: rand()/time(nullptr)/
//                   std::random_device are permitted only in
//                   common/random.* (the seeded SplitMix64 home).
//   include-guard   Headers must open with an #ifndef S2RDF_...
//                   include guard (no #pragma once, no missing guard).
//   raw-log         Diagnostics must flow through the structured event
//                   log (common/log.h) so every line shares one JSON
//                   schema, one injectable sink, and rate limiting.
//                   fprintf(stderr, ...) / std::cerr are permitted only
//                   under common/ (the sink implementation and crash
//                   paths); bench, tools and tests are exempt tree-wide
//                   (human-facing CLIs).
//
// Suppressions:
//   // s2rdf-lint: allow(<rule>)       same line or the line above
//   // s2rdf-lint: allow-file(<rule>)  within the first 20 lines
//
// Matching runs on a comment- and string-stripped copy of the source,
// so rule names in documentation never trip the linter.

namespace s2rdf::lint {

struct Violation {
  std::string file;
  int line = 0;        // 1-based.
  std::string rule;    // One of the rule names above.
  std::string message;
};

// One `// s2rdf-lint: allow(rule)` / `allow-file(rule)` marker as
// written in the source. The whole-program analyzer tracks which
// markers actually suppress something; a marker that suppresses
// nothing is itself an error (rule `stale-suppression`).
struct SuppressionMarker {
  int line = 0;         // 1-based line the marker sits on
  std::string rule;
  bool file_scope = false;  // allow-file(...) within the first 20 lines
};

// Suppression lookup built from markers. `Allows` matches a finding on
// the marker's line or the line below it (i.e. markers suppress their
// own line and the next), or anywhere for file-scope markers.
class Suppressions {
 public:
  explicit Suppressions(const std::vector<SuppressionMarker>& markers);
  // True when a finding of `rule` at `line` is suppressed. When
  // `used_marker` is non-null it receives the index (into the marker
  // vector passed to the constructor) of the marker that matched.
  bool Allows(const std::string& rule, int line,
              size_t* used_marker = nullptr) const;

 private:
  std::vector<SuppressionMarker> markers_;
};

// Parses every suppression marker in `content`. Markers are only
// recognized inside comments — one spelled in a string literal (e.g. a
// linter test fixture) is not a marker.
std::vector<SuppressionMarker> ParseSuppressionMarkers(
    const std::string& content);

// True for rule names the linter can emit (line rules, whole-program
// passes, and "io"). The suppression-hygiene census only tracks
// markers naming a known rule, so documentation placeholders like
// `allow(<rule>)` are inert rather than "stale".
bool IsKnownRule(const std::string& rule);

// Per-file scan WITHOUT suppression filtering: returns every violation
// the line rules find plus the parsed markers. The whole-program
// analyzer uses this so it can apply suppressions centrally (across
// line rules and cross-file passes) and detect stale markers.
struct FileScanResult {
  std::vector<Violation> violations;        // unfiltered
  std::vector<SuppressionMarker> markers;   // parsed from comments
};
FileScanResult ScanContent(const std::string& path,
                           const std::string& content);

// Lints one file's contents (suppressions applied). `path` is used for
// reporting and for the per-rule allowlists (posix_env.cc etc.), so
// pass repo-relative or absolute paths, not bare basenames, where
// possible.
std::vector<Violation> LintContent(const std::string& path,
                                   const std::string& content);

// Reads and lints one file from disk. Unreadable files yield a single
// violation with rule "io" so a broken tree fails loudly.
std::vector<Violation> LintFile(const std::string& path);

// "file:line: [rule] message" rendering used by the reports.
std::string FormatViolation(const Violation& v);

}  // namespace s2rdf::lint

#endif  // S2RDF_TOOLS_LINT_LINT_H_
