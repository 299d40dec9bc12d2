#!/usr/bin/env bash
# Runs the machine-readable benchmark harnesses and captures their JSON
# in the repo root:
#
#   scripts/bench_json.sh [--force] [build-dir]
#
#   BENCH_parallel.json  — reference vs morsel-kernel operators + end-to-end
#                          query stage split (parse/compile/exec)
#   BENCH_profile.json   — EXPLAIN ANALYZE overhead vs the <5% budget
#   BENCH_optimizer.json — paper vs cost-based optimizer on the WatDiv
#                          suite + the IL unbound-query set
#   BENCH_ingest.json    — incremental ingest (ExtVP delta maintenance)
#                          vs full rebuild; gates on store identity, a
#                          >= 3x speedup, and durable batches whose
#                          bytes written at SF 4 stay within 1.5x of
#                          SF 1
#   BENCH_serving.json   — open-loop HTTP serving tail latency
#                          (p50/p99/p999 + error rate per arrival rate);
#                          gates on error rate, trace-header presence
#                          and the committed baseline's p999 floor
#
# Each harness prints its human-readable table on stderr (passed
# through) and JSON on stdout (captured), and exits non-zero when its
# gate fails — identity divergence for bench_parallel/bench_optimizer, a
# blown overhead budget for bench_profile, a cost-mode regression for
# bench_optimizer — which fails this script. The timing numbers
# themselves are informational (they depend on the host).
#
# Every harness records "task_pool_parallelism" in its JSON. A run on a
# single-core host (parallelism 1) produces timings that are not
# comparable to a checked-in multi-core baseline, so this script refuses
# to overwrite an existing BENCH_*.json with a parallelism-1 run unless
# --force is given.

set -euo pipefail
cd "$(dirname "$0")/.."

force=0
if [[ "${1:-}" == "--force" ]]; then
  force=1
  shift
fi
build_dir="${1:-build}"

run() {
  local bench="${build_dir}/bench/$1" out="$2"
  if [[ ! -x "${bench}" ]]; then
    echo "error: ${bench} not found; build the default preset first:" >&2
    echo "  cmake --preset default && cmake --build --preset default" >&2
    exit 1
  fi
  local tmp
  tmp="$(mktemp "${out}.XXXXXX")"
  "${bench}" > "${tmp}" || { rm -f "${tmp}"; exit 1; }
  local width
  width="$(sed -n 's/.*"task_pool_parallelism": *\([0-9]*\).*/\1/p' "${tmp}" | head -n1)"
  if [[ -e "${out}" && "${width:-0}" -le 1 && "${force}" -ne 1 ]]; then
    rm -f "${tmp}"
    echo "error: refusing to overwrite ${out} with a run at" >&2
    echo "  task_pool_parallelism=${width:-unknown} (timings from a" >&2
    echo "  single-core host are not comparable); pass --force to override" >&2
    exit 1
  fi
  mv "${tmp}" "${out}"
  echo "wrote ${out}"
}

run bench_parallel BENCH_parallel.json
run bench_profile BENCH_profile.json
run bench_optimizer BENCH_optimizer.json
run bench_ingest BENCH_ingest.json
run bench_serving BENCH_serving.json
