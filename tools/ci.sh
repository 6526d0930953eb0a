#!/usr/bin/env bash
# CI entry point: tier-1 verify (configure, build, full ctest) plus the
# sanitizer jobs.
#
#   tools/ci.sh            # tier-1: build + all tests (and build the benches)
#   tools/ci.sh asan       # tier-1 under -fsanitize=address,undefined
#   tools/ci.sh tsan       # runtime/integration suites under ThreadSanitizer
#                          # (the morsel-parallel executor's race gate)
#   tools/ci.sh docs       # docs-consistency gate alone (links, knob/stats
#                          # coverage in docs/OPERATIONS.md)
#   tools/ci.sh metrics_smoke  # live-server Prometheus scrape gate alone
#                          # (syntax, core series, monotonicity, slow log)
#   tools/ci.sh perfbench  # self-test of the end-to-end benchmark harness
#                          # (perfbench/; builds its own Release tree)
#   tools/ci.sh all        # every job back to back + a bench smoke run
#
# ccache is picked up automatically when installed (RAVEN_NO_CCACHE=1
# disables). Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
MODE="${1:-tier1}"

CMAKE_EXTRA=()
if [[ -z "${RAVEN_NO_CCACHE:-}" ]] && command -v ccache >/dev/null 2>&1; then
  CMAKE_EXTRA+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

docs_check() {
  # Docs-consistency gate: broken intra-repo markdown links, and SET
  # knobs / SHOW STATS keys present in the code but missing from
  # docs/OPERATIONS.md (tools/check_docs.py parses both lists out of the
  # server sources, so the docs cannot silently lag the implementation).
  python3 tools/check_docs.py
}

run_suite() {
  local build_dir="$1"; shift
  # ${arr[@]+...} keeps empty arrays safe under set -u on bash < 4.4.
  cmake -B "${build_dir}" -S . \
    ${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"} \
    ${CONFIG_ARGS[@]+"${CONFIG_ARGS[@]}"}
  cmake --build "${build_dir}" -j "${JOBS}"
  # Benches are EXCLUDE_FROM_ALL; build (never run) them so the perf tooling
  # keeps compiling in every CI run. The target exists even without
  # Google Benchmark (no-op).
  cmake --build "${build_dir}" --target bench -j "${JOBS}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

artifact_smoke() {
  # End-to-end proof of the compiled-model artifact cache across real
  # process restarts: server #1 compiles and persists artifacts, server #2
  # on the same --artifact-dir must report ZERO graph optimizations while
  # serving identical PREDICT results, and server #3 — after every artifact
  # is corrupted in place — must fall back to a fresh compile without a
  # single serving error (and rewrite the artifacts).
  local build_dir="$1"
  local serve="${build_dir}/tools/raven_serve"
  local client="${build_dir}/tools/raven_client"
  local dir sock pid
  dir="$(mktemp -d /tmp/raven_ci_artifact_XXXXXX)"
  local sql="SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) WITH(p float) WHERE p > 0.5"

  start_server() {
    sock="${dir}/raven_$1.sock"
    "${serve}" --socket="${sock}" --rows=500 --artifact-dir="${dir}/cache" &
    pid=$!
    for _ in $(seq 1 100); do
      [[ -S "${sock}" ]] && break
      sleep 0.1
    done
    [[ -S "${sock}" ]] || { echo "artifact_smoke: server $1 never came up" >&2; exit 1; }
  }
  stop_server() {
    kill "${pid}" 2>/dev/null || true
    wait "${pid}" 2>/dev/null || true
  }
  stat_of() {  # stat_of <key>: value from SHOW STATS over the live socket
    "${client}" --socket="${sock}" --query "SHOW STATS" \
      | awk -v k="$1" '$1 == k { print $2 }'
  }

  start_server 1
  "${client}" --socket="${sock}" --query "${sql}" | grep -v " ms" > "${dir}/run1.out"
  local writes
  writes="$(stat_of nn_artifact_writes)"
  stop_server
  [[ "${writes}" -ge 1 ]] || { echo "artifact_smoke: server 1 wrote no artifacts" >&2; exit 1; }

  start_server 2
  "${client}" --socket="${sock}" --query "${sql}" | grep -v " ms" > "${dir}/run2.out"
  local opts hits
  opts="$(stat_of nn_graph_optimizations)"
  hits="$(stat_of nn_artifact_hits)"
  stop_server
  [[ "${opts}" -eq 0 ]] || { echo "artifact_smoke: warm cold-start ran ${opts} graph optimization(s), expected 0" >&2; exit 1; }
  [[ "${hits}" -ge 1 ]] || { echo "artifact_smoke: warm cold-start loaded no artifacts" >&2; exit 1; }
  cmp -s "${dir}/run1.out" "${dir}/run2.out" || { echo "artifact_smoke: warm results differ from cold" >&2; exit 1; }

  # Corrupt every artifact in place; serving must survive via recompile.
  local f
  for f in "${dir}/cache"/*; do
    echo garbage > "${f}"
  done
  start_server 3
  "${client}" --socket="${sock}" --query "${sql}" | grep -v " ms" > "${dir}/run3.out"
  local rejects
  rejects="$(stat_of nn_artifact_rejects)"
  stop_server
  [[ "${rejects}" -ge 1 ]] || { echo "artifact_smoke: corrupt artifacts were not rejected" >&2; exit 1; }
  cmp -s "${dir}/run1.out" "${dir}/run3.out" || { echo "artifact_smoke: corrupted-cache results differ" >&2; exit 1; }

  rm -rf "${dir}"
  echo "artifact_smoke: ok (writes=${writes} warm_hits=${hits} rejects=${rejects})"
}

metrics_smoke() {
  # End-to-end proof of the observability surface against a LIVE server:
  # scrape the plaintext-HTTP /metrics endpoint twice with real queries in
  # between, validate Prometheus text syntax (tools/check_metrics.py),
  # assert the core serving series are present, and assert every counter
  # and histogram count is monotone across the two scrapes. Also covers
  # the slow-query log (a SET slow_query_millis=0-threshold query must
  # land exactly one JSON span-tree line per statement).
  local build_dir="$1"
  local serve="${build_dir}/tools/raven_serve"
  local client="${build_dir}/tools/raven_client"
  local dir sock pid port
  dir="$(mktemp -d /tmp/raven_ci_metrics_XXXXXX)"
  sock="${dir}/raven.sock"

  "${serve}" --socket="${sock}" --rows=2000 --metrics-port=0 \
    --slow-query-log="${dir}/slow.jsonl" > "${dir}/serve.log" &
  pid=$!
  trap 'kill "${pid}" 2>/dev/null || true' RETURN
  for _ in $(seq 1 100); do
    [[ -S "${sock}" ]] && break
    sleep 0.1
  done
  [[ -S "${sock}" ]] || { echo "metrics_smoke: server never came up" >&2; exit 1; }
  port="$(sed -n 's#.*metrics on http://127.0.0.1:\([0-9]*\)/metrics#\1#p' "${dir}/serve.log")"
  [[ -n "${port}" ]] || { echo "metrics_smoke: no metrics port in serve log" >&2; exit 1; }

  "${client}" --socket="${sock}" \
    --query "SELECT airline, COUNT(*) AS n FROM flights GROUP BY airline" \
    > /dev/null
  python3 tools/check_metrics.py --fetch "http://127.0.0.1:${port}/metrics" "${dir}/scrape1.txt"
  # Real traffic between the scrapes: a repeat (plan-cache hit) and one
  # slow-logged statement — the many-to-many self-join runs ~10ms at 2000
  # rows, an order of magnitude over the 1ms threshold, so the log line is
  # deterministic.
  "${client}" --socket="${sock}" \
    --query "SELECT airline, COUNT(*) AS n FROM flights GROUP BY airline" \
    --query "SET slow_query_millis = 1" \
    --query "SELECT f.airline, COUNT(*) AS n FROM flights AS f JOIN flights AS g ON f.airline = g.airline GROUP BY f.airline" \
    > /dev/null
  python3 tools/check_metrics.py --fetch "http://127.0.0.1:${port}/metrics" "${dir}/scrape2.txt"

  python3 tools/check_metrics.py "${dir}/scrape1.txt" "${dir}/scrape2.txt" \
    --require raven_queries_served_total \
    --require raven_plan_cache_hits_total \
    --require raven_plan_cache_misses_total \
    --require raven_sessions_active \
    --require raven_queries_active \
    --require raven_query_latency_seconds \
    --require raven_queue_wait_seconds \
    --require raven_query_rows

  # The second scrape must show forward progress, not just syntax: at least
  # one statement was served between the scrapes.
  local served1 served2
  served1="$(awk '$1 == "raven_queries_served_total" { print int($2) }' "${dir}/scrape1.txt")"
  served2="$(awk '$1 == "raven_queries_served_total" { print int($2) }' "${dir}/scrape2.txt")"
  [[ "${served2}" -gt "${served1}" ]] || { echo "metrics_smoke: raven_queries_served_total did not advance (${served1} -> ${served2})" >&2; exit 1; }

  local slow_lines
  slow_lines="$(wc -l < "${dir}/slow.jsonl" 2>/dev/null || echo 0)"
  [[ "${slow_lines}" -ge 1 ]] || { echo "metrics_smoke: slow-query log is empty" >&2; exit 1; }
  grep -q '"spans":\[' "${dir}/slow.jsonl" || { echo "metrics_smoke: slow-query log lines carry no span tree" >&2; exit 1; }

  kill "${pid}" 2>/dev/null || true
  wait "${pid}" 2>/dev/null || true
  # A RETURN trap outlives the function that set it: left in place it would
  # fire again when the caller returns, where the local pid is unbound
  # (set -u) and the job would fail after every leg passed.
  trap - RETURN
  rm -rf "${dir}"
  echo "metrics_smoke: ok (served ${served1} -> ${served2}, ${slow_lines} slow-log line(s))"
}

tier1() {
  # The full ctest in run_suite includes the `fuzz`-labeled randomized
  # differential harness (tests/query_fuzz_test.cc — in-process dop {1,8},
  # distributed {2,4}-worker, AND 4-concurrent-client query-server legs),
  # the `distributed`-labeled worker-pool / protocol-fault-injection suite
  # (tests/worker_pool_test.cc: SIGKILLed workers, truncated/oversized
  # frames, dead worker binaries), and the `server`-labeled concurrent
  # query-server suite (tests/server_test.cc: protocol + plan cache +
  # admission units, hostile clients, and the 8-client mixed-traffic soak).
  # The `storage`-labeled suite (tests/storage_test.cc) covers the on-disk
  # .rvc columnar format: round trips, corruption rejection, zone-map
  # skipping; the fuzz harness adds its on-disk differential legs on top.
  # Re-run any alone with
  # `ctest --test-dir build -L fuzz|distributed|server|storage`.
  # All spawn real raven_worker children or socket servers; their timeouts
  # (tests/CMakeLists.txt) are sized for that.
  CONFIG_ARGS=()
  docs_check
  run_suite build
  artifact_smoke build
  metrics_smoke build
}

asan() {
  CONFIG_ARGS=(-DRAVEN_SANITIZE=address,undefined)
  run_suite build-asan
}

tsan() {
  # ThreadSanitizer gate for the morsel-driven parallel executor: the whole
  # suite runs (it is fast), which covers the runtime + integration suites
  # the parallel operators live under. Races fail the job via
  # -fno-sanitize-recover.
  # The full suite includes the `fuzz`-labeled harness — 200 random plans x
  # parallelism {1, 2, 8}, the distributed {2, 4}-worker differential leg,
  # and the 4-concurrent-client server leg — the `distributed`-labeled
  # fault-injection suite, and the `server`-labeled query-server suite
  # whose 8-client soak (shared plan cache, admission queue, concurrent
  # PlanExecutor use, disconnect-mid-query) is the newest concurrent code,
  # plus the `storage`-labeled suite (concurrent workers decoding shared
  # mmap'd blocks and racing the shared block counters).
  # A TSan hit names the offending query via the printed seed. Timeouts are
  # sized for TSan's ~10x slowdown (see tests/CMakeLists.txt).
  CONFIG_ARGS=(-DRAVEN_SANITIZE=thread)
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" run_suite build-tsan
}

perfbench_selftest() {
  # The benchmark harness's own checks: the build guard refuses
  # unoptimized and sanitizer builds, a short run of every workload
  # verifies all of its results, and a corrupted reference is caught.
  # perfbench/run.py configures and builds a Release tree under
  # .bench_build/ on first use (~1 min on 4 cores).
  python3 perfbench/selftest.py
}

case "${MODE}" in
  tier1)
    tier1
    ;;
  asan)
    docs_check
    asan
    ;;
  tsan)
    docs_check
    tsan
    ;;
  docs)
    docs_check
    ;;
  metrics_smoke)
    # Assumes an existing tier-1 build/ (run `tools/ci.sh` first).
    metrics_smoke build
    ;;
  perfbench)
    perfbench_selftest
    ;;
  all)
    tier1
    asan
    tsan
    perfbench_selftest
    # Perf trajectory data point: smoke-run the figure benches and leave
    # BENCH_<sha>.json at the repo root. The compare gate fails the job
    # when a scan/filter/predict microbenchmark regressed >10% vs the
    # committed baseline (benches absent from the baseline report as
    # "new" and never gate).
    tools/bench.sh --smoke --compare BENCH_289e1c6.json --fail-over 10
    ;;
  *)
    echo "usage: tools/ci.sh [tier1|asan|tsan|docs|metrics_smoke|perfbench|all]" >&2
    exit 2
    ;;
esac
