#!/usr/bin/env bash
# Runs the paper-figure benchmarks (bench_fig2* + bench_fig3) plus the
# operator-regression benches (bench_groupby_parallelism,
# bench_hash_join — the join's build and probe in ns per row,
# bench_nnrt_ops — NNRT Gemm/Featurize/whole-MLP ns per row per backend,
# bench_executor_dispatch — the plan executor's µs per statement for small
# filter+project statements at dop 1 and 4,
# bench_distributed_scan_predict — in-process vs 4-worker-pool scan+PREDICT,
# bench_server_throughput — QPS + p50/p95/p99 of the query server under
# 1/4/16 concurrent clients (client-side exact percentiles AND server-side
# percentiles from the raven_query_latency_seconds metrics histogram),
# cold vs warm plan cache) with
# --benchmark_format=json and writes one combined JSON document to
# BENCH_<short-sha>.json at the repo root — the perf-trajectory data point
# CI uploads as an artifact.
#
#   tools/bench.sh            # full figure sweep (slow; minutes)
#   tools/bench.sh --smoke    # minimal benchtime + large sizes filtered
#                             # out; wired into `tools/ci.sh all`
#   tools/bench.sh --compare BASELINE.json
#                             # after the run, print per-benchmark
#                             # real_time deltas vs the baseline document
#                             # (tools/bench_compare.py); combinable with
#                             # --smoke and --fail-over PCT (exit non-zero
#                             # when a scan/filter/predict microbenchmark
#                             # regressed by more than PCT percent)
#
# The output document maps each bench binary name to Google Benchmark's
# native JSON (context + benchmarks array), so downstream tooling can diff
# runs across commits:  { "bench_fig3_integration": {...}, ... }. A
# top-level "host" entry records the CPU count (nproc) and the build's
# CMAKE_BUILD_TYPE the numbers came from.
#
# Debug and sanitizer build trees are refused (exit 2) by the rule
# perfbench/run.py applies (check_build): only unsanitized Release or
# RelWithDebInfo builds are measured.
#
# Env: BUILD_DIR (default: build), BENCH_OUT (default: BENCH_<sha>.json).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

SMOKE=0
COMPARE=""
FAIL_OVER=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke)
      SMOKE=1; shift ;;
    --compare)
      COMPARE="${2:?--compare needs a baseline JSON path}"; shift 2 ;;
    --fail-over)
      FAIL_OVER="${2:?--fail-over needs a percentage}"; shift 2 ;;
    *)
      echo "usage: tools/bench.sh [--smoke] [--compare BASELINE.json]" \
           "[--fail-over PCT]" >&2
      exit 2 ;;
  esac
done
if [[ -n "${COMPARE}" && ! -f "${COMPARE}" ]]; then
  echo "bench.sh: baseline '${COMPARE}' not found" >&2
  exit 2
fi

# Make sure the bench binaries exist and are fresh.
if [[ ! -d "${BUILD_DIR}" ]]; then
  cmake -B "${BUILD_DIR}" -S .
fi
BUILD_TYPE="$(python3 - "${BUILD_DIR}" <<'EOF'
import sys
sys.dont_write_bytecode = True
sys.path.insert(0, "perfbench")
import run
build_dir = sys.argv[1]
cache = run.read_cmake_cache(build_dir)
reason = run.check_build(cache)
if reason:
    sys.exit("bench.sh: refusing to measure %s: %s" % (build_dir, reason))
print(cache["CMAKE_BUILD_TYPE"])
EOF
)" || exit 2
cmake --build "${BUILD_DIR}" --target bench -j "${JOBS}"

BENCH_ARGS=(--benchmark_format=json)
if [[ "${SMOKE}" == 1 ]]; then
  # Minimal benchtime, and skip the large row counts (their Iterations(2)
  # overrides min_time, so filtering is what keeps smoke fast).
  # Bare-double min_time (the "0.01s" spelling needs benchmark >= 1.8).
  BENCH_ARGS+=(--benchmark_min_time=0.01
               "--benchmark_filter=-/(100000|200000|500000|1000000)(/|$)")
fi

shopt -s nullglob
BINARIES=("${BUILD_DIR}"/bench/bench_fig2* "${BUILD_DIR}"/bench/bench_fig3*
          "${BUILD_DIR}"/bench/bench_groupby*
          "${BUILD_DIR}"/bench/bench_hash_join*
          "${BUILD_DIR}"/bench/bench_nnrt_ops*
          "${BUILD_DIR}"/bench/bench_executor*
          "${BUILD_DIR}"/bench/bench_distributed*
          "${BUILD_DIR}"/bench/bench_server*
          "${BUILD_DIR}"/bench/bench_artifact*
          "${BUILD_DIR}"/bench/bench_columnar*)
if [[ ${#BINARIES[@]} -eq 0 ]]; then
  echo "bench.sh: no bench_fig2*/bench_fig3*/bench_groupby*/bench_hash_join*/bench_nnrt_ops*/bench_executor*/bench_distributed*/bench_server*/bench_artifact*/bench_columnar* binaries under ${BUILD_DIR}/bench" >&2
  echo "bench.sh: is Google Benchmark installed?" >&2
  exit 1
fi

SHA="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
OUT="${BENCH_OUT:-BENCH_${SHA}.json}"

{
  echo '{'
  printf '"host": {"nproc": %d, "build_type": "%s"}' "$(nproc)" "${BUILD_TYPE}"
  for bin in "${BINARIES[@]}"; do
    [[ -x "${bin}" ]] || continue
    name="$(basename "${bin}")"
    echo ','
    printf '"%s":\n' "${name}"
    echo "bench.sh: running ${name}" >&2
    "${bin}" "${BENCH_ARGS[@]}"
  done
  echo '}'
} > "${OUT}"

if [[ ! -s "${OUT}" ]]; then
  echo "bench.sh: ${OUT} is empty" >&2
  exit 1
fi
echo "bench.sh: wrote ${OUT}"

if [[ -n "${COMPARE}" ]]; then
  COMPARE_ARGS=("${COMPARE}" "${OUT}")
  if [[ -n "${FAIL_OVER}" ]]; then
    COMPARE_ARGS+=(--fail-over "${FAIL_OVER}")
  fi
  python3 tools/bench_compare.py "${COMPARE_ARGS[@]}"
fi
