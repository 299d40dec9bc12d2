#!/usr/bin/env bash
# Local CI gate: runs the full verification matrix described in
# DESIGN.md §7. Usage:
#
#   scripts/check.sh          # everything (release, lint, durable and
#                             # http-short benchmark answers, analyze,
#                             # sanitizers)
#   scripts/check.sh quick    # release build + full ctest + lint +
#                             # benchmark build only
#
# Each leg is independent; the script fails fast on the first broken
# one. The `analyze` leg needs clang++ (thread-safety analysis) and is
# skipped with a notice when it is not installed.

set -euo pipefail
cd "$(dirname "$0")/.."

note() { printf '\n== %s ==\n' "$*"; }

note "release build + full test suite"
cmake --preset default >/dev/null
cmake --build --preset default -j"$(nproc)"
ctest --preset default

note "repo linter (ctest -L lint)"
ctest --preset lint

note "whole-program analysis (layering, lock-order, interrupt-coverage, status-discipline)"
./build/tools/lint/s2rdf_lint --root=. src tests bench tools

note "benchmark package (perfbench/) builds against the library's public API"
# perfbench/ is built from the unedited benchmark sources on top of
# src/, as the benchmark run builds it: an API change that breaks the
# benchmark fails here instead of in the benchmark run.
cmake -S perfbench -B build-perfbench >/dev/null
cmake --build build-perfbench -j"$(nproc)" --target perfbench

note "recorded benchmark consistency (committed BENCH_*.json)"
# Every BENCH_*.json the bench leg below maintains must be present in
# the repo root: a missing file means a harness's recorded baseline was
# never committed (or was deleted), and downstream comparisons silently
# have nothing to compare against.
for bench_json in BENCH_parallel.json BENCH_profile.json \
                  BENCH_optimizer.json BENCH_ingest.json \
                  BENCH_serving.json; do
  if [[ ! -f "${bench_json}" ]]; then
    echo "error: ${bench_json} is missing from the repo root; record it" >&2
    echo "  with scripts/bench_json.sh and commit it" >&2
    exit 1
  fi
done
# The committed parallel baseline must come from a real multi-way pool
# (width >= 4) on a host with at least 4 hardware threads, and must have
# met its speedup floor when recorded — a width-1, oversubscribed or
# floor-failing JSON would make the paper's parallel claim
# unreproducible from the repo.
width="$(sed -n 's/.*"task_pool_parallelism": *\([0-9]*\).*/\1/p' BENCH_parallel.json | head -n1)"
if [[ "${width:-0}" -lt 4 ]]; then
  echo "error: BENCH_parallel.json was recorded at task_pool_parallelism=${width:-unknown}" >&2
  echo "  (need >= 4); rerun scripts/bench_json.sh with S2RDF_TASK_POOL_THREADS=4" >&2
  exit 1
fi
cores="$(sed -n 's/.*"hardware_concurrency": *\([0-9]*\).*/\1/p' BENCH_parallel.json | head -n1)"
if [[ "${cores:-0}" -lt 4 ]]; then
  echo "error: BENCH_parallel.json was recorded at hardware_concurrency=${cores:-unknown}" >&2
  echo "  (need >= 4: a wider pool than the host measures oversubscription);" >&2
  echo "  rerun scripts/bench_json.sh on a host with 4 or more cores" >&2
  exit 1
fi
if grep -q '"gated": true' BENCH_parallel.json; then
  floor="$(sed -n 's/.*"speedup_floor": *\([0-9.]*\).*/\1/p' BENCH_parallel.json | head -n1)"
  bad="$(awk -v floor="${floor:-1.5}" '
    /"gated": true/ {
      if (match($0, /"speedup": *[0-9.]+/)) {
        s = substr($0, RSTART + 11, RLENGTH - 11)
        if (s + 0 < floor + 0) bad = 1
      }
    }
    END { exit bad ? 0 : 1 }' BENCH_parallel.json && echo yes || true)"
  if [[ "${bad}" == "yes" ]]; then
    echo "error: BENCH_parallel.json has a gated entry below its recorded" >&2
    echo "  speedup floor (${floor:-1.5}x); re-record with scripts/bench_json.sh" >&2
    exit 1
  fi
fi

# The committed ingest baseline must have passed its gates when recorded,
# the durable leg's among them: SF-4 bytes written per batch within 1.5x
# of SF 1, i.e. a batch writes what it adds, not a copy of the store.
if ! grep -q '"durable_bytes_gate_passed": true' BENCH_ingest.json ||
   ! grep -q '"gate_passed": true' BENCH_ingest.json; then
  echo "error: BENCH_ingest.json was recorded without passing its identity," >&2
  echo "  speedup and durable-bytes gates; re-record it with" >&2
  echo "  scripts/bench_json.sh and commit it" >&2
  exit 1
fi

# The committed serving baseline must itself have passed its gates when
# recorded — a floor-violating or error-ridden JSON would gate future
# runs against a known-bad tail.
if grep -q '"within_floor": false' BENCH_serving.json ||
   grep -q '"all_within_floor": false' BENCH_serving.json; then
  echo "error: BENCH_serving.json was recorded with a floor/error-rate" >&2
  echo "  violation; re-record with scripts/bench_json.sh and commit" >&2
  exit 1
fi

note "benchmark gates (BENCH_parallel.json, BENCH_profile.json, BENCH_optimizer.json, BENCH_ingest.json, BENCH_serving.json)"
scripts/bench_json.sh build

note "paper-table harnesses (Table 2 load, Table 6 SF threshold)"
# Each builds its stores at the default SFs in about a second and exits
# non-zero when a load or a query fails; their table, tuple and byte
# counts are the record that a build change leaves the stores as they
# were.
./build/bench/bench_load_table2
./build/bench/bench_sf_threshold_table6

if [[ "${1:-}" == "quick" ]]; then
  note "quick mode: skipping analyze + sanitizer legs"
  exit 0
fi

note "durable benchmark answers (perfbench durable, seed 1, 4 s)"
# The durable workload loads a store to disk, reopens it, queries it with
# the table cache capped and ingests into it; its answer oracle reads
# back what the store format wrote. Run in run.py's default build
# directory, as the benchmark itself is run.
durable="$(env -u CARGO_TARGET_DIR python3 perfbench/run.py --workload durable \
  --seed 1 --seconds 4 --trace 0 | tail -n1)"
if ! grep -q '"correct": true' <<<"${durable}"; then
  echo "error: perfbench durable run did not answer correctly:" >&2
  echo "  ${durable}" >&2
  exit 1
fi

note "durable benchmark answers at pool width 1 (perfbench durable, seed 1, 4 s)"
# A commit writes its blobs across the shared TaskPool; at width 1 every
# blob is planned and written on the committing thread. Both must store
# the bytes the answer oracle reads back.
durable_width1="$(env -u CARGO_TARGET_DIR S2RDF_TASK_POOL_THREADS=1 \
  python3 perfbench/run.py --workload durable --seed 1 --seconds 4 \
  --trace 0 | tail -n1)"
if ! grep -q '"correct": true' <<<"${durable_width1}"; then
  echo "error: perfbench durable run at pool width 1 did not answer correctly:" >&2
  echo "  ${durable_width1}" >&2
  exit 1
fi

note "http-short benchmark answers (perfbench http-short, seed 1, 4 s)"
# The one leg where several clients drive the endpoint over connections
# it keeps open (durable's passes use one client): every request must be
# answered, and answered right.
http_short="$(env -u CARGO_TARGET_DIR python3 perfbench/run.py --workload http-short \
  --seed 1 --seconds 4 --trace 0 | tail -n1)"
if ! grep -q '"correct": true' <<<"${http_short}" ||
   ! grep -q '"failed": 0[,}]' <<<"${http_short}"; then
  echo "error: perfbench http-short run failed or answered wrongly:" >&2
  echo "  ${http_short}" >&2
  exit 1
fi

note "clang-tidy (bugprone / performance / concurrency; config in .clang-tidy)"
if command -v clang-tidy >/dev/null 2>&1; then
  # Needs a compile database; the default preset exports one.
  if [[ -f build/compile_commands.json ]]; then
    find src tools/lint -name '*.cc' -not -path '*/testdata/*' -print0 |
      xargs -0 -P "$(nproc)" -n 4 clang-tidy -p build --quiet
  else
    echo "build/compile_commands.json missing: configure the default preset"
    echo "with CMAKE_EXPORT_COMPILE_COMMANDS=ON to enable the tidy leg."
  fi
else
  echo "clang-tidy not found: skipping (s2rdf_lint still covers the"
  echo "repo-invariant and cross-file checks; see .clang-tidy for the delta)."
fi

note "static analysis preset (clang thread-safety + nodiscard as errors)"
if command -v clang++ >/dev/null 2>&1; then
  cmake --preset analyze >/dev/null
  cmake --build --preset analyze -j"$(nproc)"
  # The compile-fail proof and its clean twin register under this label.
  ctest --test-dir build-analyze -L analyze --output-on-failure
else
  echo "clang++ not found: skipping the analyze preset (annotations are"
  echo "no-ops under GCC, so there is nothing to check without Clang)."
fi

for san in asan tsan ubsan; do
  note "${san} build + full test suite (including -L faults)"
  cmake --preset "${san}" >/dev/null
  cmake --build --preset "${san}" -j"$(nproc)"
  ctest --preset "${san}"
  ctest --preset "${san}-faults"
done

# The crash-point-matrix ingest suite, explicitly, under the two
# sanitizers that catch its failure modes (use-after-free of pinned
# tables under asan, commit/read races under tsan).
for san in asan tsan; do
  note "${san} ingest crash-matrix suite (-L ingest)"
  ctest --preset "${san}-ingest"
done

note "tsan queries during commits and racing lazy builds, ten passes"
# One pass rarely lands a query inside a commit's flip, copy-forward or
# segment removal, or two queries on the same lazy ExtVP pair; ten give
# the race detector its chances. The stress test's lazy_pairs_computed
# equality checks that each lazy pair is computed once. A filter that
# selects nothing fails the leg instead of passing it.
ctest --preset tsan --repeat until-fail:10 --no-tests=error \
  -R 'IngestConcurrencyTest\.|SegmentTest\.AStateReadsOneGeneration|ConcurrencyStressTest\.ParallelMixedQueriesMatchSerial'

note "all checks passed"
