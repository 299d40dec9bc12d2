#ifndef S2RDF_TOOLS_LINT_PASSES_PASSES_H_
#define S2RDF_TOOLS_LINT_PASSES_PASSES_H_

#include <string>
#include <vector>

#include "lint.h"
#include "model.h"

// Phase 2 of the whole-program analyzer: cross-file passes over the
// merged ProgramModel. Each pass enforces one invariant no compiler
// checks globally (DESIGN.md §13):
//
//   layering             the module dependency DAG
//                          common → {rdf, sparql, storage, mapreduce,
//                          watdiv} → {core, engine} → {server,
//                          baselines} → tools → {tests, bench}
//                        derived from the include graph. Illegal
//                        back-edges (a module including a higher
//                        layer) and include cycles fail. Also flags
//                        transitive-include reliance: a .cc that uses
//                        common::Mutex types without including
//                        common/mutex.h directly.
//   lock-order           global acquired-before digraph built from
//                        lexically nested MutexLock/ReaderLock/
//                        WriterLock acquisitions, one-level-transitive
//                        may-acquire propagation through the call
//                        graph, and S2RDF_ACQUIRED_BEFORE/_AFTER
//                        annotations. Any cycle is a potential
//                        cross-TU deadlock Clang's per-function
//                        thread-safety analysis cannot see.
//   interrupt-coverage   every row loop in src/engine/ (a loop bounded
//                        by NumRows() or emitting rows via AppendRow*/
//                        EmitJoinedRow) inside a function that can see
//                        an ExecContext must check the cancellation
//                        seam (kInterruptCheckRows / CheckInterrupt /
//                        InterruptRequested) in its own or an
//                        enclosing loop's extent.
//   status-discipline    StatusOr value access (.value(), operator*,
//                        operator->) not preceded by an ok()/status()
//                        check on the same local, and Status/StatusOr
//                        locals constructed and never read again
//                        (dropped errors).
//   stale-suppression    a `// s2rdf-lint: allow(...)` marker that
//                        suppresses nothing (computed by the analyzer,
//                        which tracks marker usage across line rules
//                        AND pass findings).
//
// All passes are heuristic and token-level; they err conservative and
// every finding is suppressible with the normal marker syntax.

namespace s2rdf::lint {

std::vector<Violation> CheckLayering(const ProgramModel& program);
std::vector<Violation> CheckLockOrder(const ProgramModel& program);
std::vector<Violation> CheckInterruptCoverage(const ProgramModel& program);
std::vector<Violation> CheckStatusDiscipline(const ProgramModel& program);

// One marker with its resolved usage, for the suppression census.
struct MarkerUsage {
  std::string path;
  SuppressionMarker marker;
  bool used = false;
};

// Emits `stale-suppression` for every unused marker. Usage is computed
// by the analyzer (analyzer.cc), which filters all findings centrally.
std::vector<Violation> CheckSuppressionHygiene(
    const std::vector<MarkerUsage>& markers);

// Layer rank of a repo-relative path ("src/engine/plan.cc" → 2), or -1
// when the path is outside the layered tree. Exposed for tests.
int LayerRank(const std::string& path);

}  // namespace s2rdf::lint

#endif  // S2RDF_TOOLS_LINT_PASSES_PASSES_H_
