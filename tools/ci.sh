#!/usr/bin/env bash
# CI driver: format gate, then builds and ctests the plain,
# AddressSanitizer, ThreadSanitizer, UndefinedBehaviorSanitizer, and
# scalar (-DPUNCTSAFE_NO_SIMD=ON, portable exec/simd.h fallback)
# configurations (see -DPUNCTSAFE_SANITIZE in the top-level
# CMakeLists.txt), then smoke-runs the standalone benchmark binaries
# in a Release build on tiny inputs. The plain leg also builds and
# runs the four examples and runs each perfbench workload for one
# second (a compile and correctness smoke, no performance threshold).
# The sanitizer runs are what give the parallel executor's
# differential and queue stress tests their teeth (the TSan leg also
# runs the observability export, bounded queue and partition purge
# tests explicitly: exporter reads against worker writes, and the
# shard-buffer hand-off); the bench smoke keeps the JSON-emitting
# binaries (and their internal result-equality CHECKs, including the
# sharded executor's) from rotting between full benchmark runs, and
# additionally exports an observability metrics JSONL
# (bench/metrics.jsonl under the build root — uploaded as a CI
# artifact, rendered with tools/obs_report.py).
#
# Usage: tools/ci.sh [build-root]         (default: ./build-ci)
#   PUNCTSAFE_CI_CONFIGS="format plain asan tsan ubsan bench" for a
#   subset.
#   PUNCTSAFE_BENCH_MIN_RATIO tunes the bench regression-gate floor
#   (default 0.75; the bench binaries read it themselves).
#   PUNCTSAFE_CTEST_TIMEOUT caps every single test's wall time
#   (default 300s) so a wedged event loop or deadlocked pipeline fails
#   the run instead of hanging it until the CI job timeout.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_ROOT="${1:-${ROOT}/build-ci}"
CONFIGS="${PUNCTSAFE_CI_CONFIGS:-format plain scalar asan tsan ubsan bench}"
JOBS="${PUNCTSAFE_CI_JOBS:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)}"
CTEST_TIMEOUT="${PUNCTSAFE_CTEST_TIMEOUT:-300}"

# Runs an explicit post-ctest test binary by path, failing loudly when
# the binary does not exist: a bare "${dir}/tests/foo" that was
# renamed would otherwise read as a passing leg even though the
# intended coverage never ran.
run_explicit() {
  local binary="$1"
  shift
  if [ ! -x "${binary}" ]; then
    echo "ERROR: explicit test binary '${binary}' is missing or not" \
         "executable (renamed without updating tools/ci.sh?)" >&2
    exit 1
  fi
  "${binary}" "$@"
}

# Builds perfbench/ (its own CMake package over ../src) and runs every
# BENCHMARK.json workload for one second through perfbench/run.py,
# failing unless the closing JSON line reads "correct": true with 0
# failed operations. A library API change that breaks cjq_bench, or a
# wrong answer on a benchmark workload, fails here instead of first
# showing up when the benchmark runs. No throughput is checked.
run_perfbench_smoke() {
  local workloads
  workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "${ROOT}/BENCHMARK.json")"
  for workload in ${workloads}; do
    echo "=== [plain] perfbench smoke: ${workload} ==="
    local last
    last="$(CARGO_TARGET_DIR="${BUILD_ROOT}/perfbench" python3 \
      "${ROOT}/perfbench/run.py" --workload "${workload}" --seconds 1 \
      --seed 1 | tail -n 1)"
    echo "${last}"
    python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' \
      "${last}" || {
      echo "ERROR: perfbench ${workload} did not end with correct: true" \
           "and failed: 0" >&2
      exit 1
    }
  done
}

run_config() {
  local name="$1" sanitize="$2" no_simd="${3:-OFF}"
  local dir="${BUILD_ROOT}/${name}"
  # Only the plain leg builds the examples; it also runs each once.
  local examples=OFF
  if [ "${name}" = "plain" ]; then examples=ON; fi
  echo "=== [${name}] configure (PUNCTSAFE_SANITIZE='${sanitize}'" \
       "PUNCTSAFE_NO_SIMD=${no_simd}) ==="
  cmake -B "${dir}" -S "${ROOT}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPUNCTSAFE_SANITIZE="${sanitize}" \
    -DPUNCTSAFE_NO_SIMD="${no_simd}" \
    -DPUNCTSAFE_BUILD_BENCHMARKS=OFF \
    -DPUNCTSAFE_BUILD_EXAMPLES="${examples}"
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [${name}] ctest ==="
  (cd "${dir}" && ctest --output-on-failure --timeout "${CTEST_TIMEOUT}" \
    -j "${JOBS}")
  # The parallel differential sweep (parallel_differential_test runs
  # shards {1,2,3,4} against a batch_size-1 serial reference, itself
  # checked against the never-purging reference join) runs as part of
  # ctest above; under ASan it is the lifetime proof for epoch-deferred
  # arena reclamation and under TSan the publication-order proof for
  # cross-shard hand-off, so make its presence explicit in both rather
  # than relying on the suite listing.
  # The batched-expansion differential oracle (batch_size sweep vs the
  # batch_size-1 run, exact emission order, every run's sorted results
  # vs the never-purging reference join, cross-product / verify-heavy /
  # sparse-selection shapes, expand_allocs pin) also
  # runs on the scalar leg: with PUNCTSAFE_NO_SIMD the identical
  # frontier pipeline executes over the portable FilterEqualHashes /
  # HashRunLength fallbacks, which is the behavioral SIMD-vs-scalar
  # cross-check (tools/simd_crosscheck.sh covers compile-only).
  if [ "${name}" = "scalar" ] || [ "${name}" = "asan" ] || \
     [ "${name}" = "tsan" ]; then
    echo "=== [${name}] batched-expansion differential oracle (explicit) ==="
    run_explicit "${dir}/tests/expansion_differential_test"
    # The purge wait-index oracle (wake-driven purging vs the
    # full-sweep reference across trace families, policies, lifespans
    # and a mid-trace restore, plus the warm removability-check
    # allocation pin): under ASan it proves parked slots and wait-index
    # nodes are never read past their tuple's epoch, and on the scalar
    # leg the same oracle runs over the portable expansion kernels.
    echo "=== [${name}] purge wait-index differential oracle (explicit) ==="
    run_explicit "${dir}/tests/purge_wakeup_differential_test"
  fi
  # The server end-to-end test (loopback sockets, background event
  # loop, multi-client fan-out, slow-consumer drop) and the registry
  # test (shared plan groups) get explicit runs on the plain leg and
  # under both sanitizers: ASan covers connection/result buffer
  # lifetimes and group teardown, TSan the event-loop thread against
  # client threads, the registry's coarse lock, and a shared group's
  # TakeResults against parallel-executor worker threads.
  if [ "${name}" = "plain" ] || [ "${name}" = "asan" ] || \
     [ "${name}" = "tsan" ]; then
    echo "=== [${name}] server end-to-end (explicit) ==="
    run_explicit "${dir}/tests/server_e2e_test"
    echo "=== [${name}] query registry plan sharing (explicit) ==="
    run_explicit "${dir}/tests/query_registry_test"
  fi
  if [ "${name}" = "plain" ]; then
    for example in quickstart network_monitoring sensor_dashboard \
                   plan_advisor; do
      echo "=== [${name}] example: ${example} ==="
      run_explicit "${dir}/examples/${example}"
    done
    run_perfbench_smoke
  fi
  if [ "${name}" = "scalar" ]; then
    echo "=== [${name}] simd branch compile cross-check ==="
    "${ROOT}/tools/simd_crosscheck.sh"
  fi
  if [ "${name}" = "asan" ] || [ "${name}" = "tsan" ]; then
    echo "=== [${name}] parallel differential sweep (explicit) ==="
    run_explicit "${dir}/tests/parallel_differential_test" \
      --gtest_filter='ParallelDifferentialTest.HundredRandomTrialsMatchSerialExecutor'
    # The recovery oracle (serial = kill/restore/replay = split-merge =
    # parallel restore at shards {1,2,3,4}) exercises the
    # checkpoint barrier, snapshot capture on parked shards, and the
    # restore recheck handshake; under ASan it proves captured state
    # outlives the executor it came from, under TSan that the barrier
    # really quiesces every worker before CaptureState reads operator
    # state from the driver thread.
    echo "=== [${name}] recovery differential oracle (explicit) ==="
    run_explicit "${dir}/tests/recovery_differential_test" \
      --gtest_filter='RecoveryDifferentialTest.HundredRandomKillRestoreTrialsMatchSerial'
  fi
  # The observability export test reads every shard's histograms and
  # counters from the driver thread (snapshot, JSONL render, the
  # exporter's background thread) while parallel-executor workers
  # record into them: under TSan it is the proof that those reads race
  # cleanly with the workers' writes.
  # The queue contract (weighted capacity, PopAll's storage swap) and
  # the key-routed punctuation placement carry the cross-thread
  # hand-off of shard buffers, which workers return to a free list the
  # producers take from: under TSan they are its publication-order
  # proof.
  if [ "${name}" = "tsan" ]; then
    echo "=== [${name}] observability export (explicit) ==="
    run_explicit "${dir}/tests/obs_export_test"
    echo "=== [${name}] bounded queue (explicit) ==="
    run_explicit "${dir}/tests/bounded_queue_test"
    echo "=== [${name}] partition purge (explicit) ==="
    run_explicit "${dir}/tests/partition_purge_test"
  fi
}

# Release build with benchmarks ON, run on deliberately tiny inputs:
# a correctness smoke (each binary CHECKs serial/parallel/partitioned
# result equality internally), not a measurement.
# Runs one bench-smoke step, recording its name in BENCH_FAILED
# instead of stopping the leg when it fails, so one red gate cannot
# hide the steps after it (the checkpoint binary's split->merge byte
# identity CHECKs, for one).
BENCH_FAILED=()
bench_step() {
  local name="$1"
  shift
  echo "=== [bench] ${name} ==="
  if ! "$@"; then
    echo "=== [bench] FAILED: ${name} ===" >&2
    BENCH_FAILED+=("${name}")
  fi
}

run_bench_partitioned() {
  "$1/bench/bench_partitioned_join" --generations 10 --iters 1 \
    | tee "$1/BENCH_partitioned.json"
}

run_bench_fig3() {
  "$1/bench/bench_fig3_chained_purge" \
    --benchmark_min_time=0.01 --benchmark_filter='windows:20' >/dev/null
}

run_bench_smoke() {
  local dir="${BUILD_ROOT}/bench"
  echo "=== [bench] configure (Release, benchmarks ON) ==="
  cmake -B "${dir}" -S "${ROOT}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DPUNCTSAFE_BUILD_BENCHMARKS=ON \
    -DPUNCTSAFE_BUILD_EXAMPLES=OFF
  echo "=== [bench] build ==="
  cmake --build "${dir}" -j "${JOBS}"
  # Every step below runs even when an earlier one fails; the leg
  # exits 1 at the end, naming the failed steps.
  bench_step "smoke: bench_parallel_pipeline (+metrics export)" \
    "${dir}/bench/bench_parallel_pipeline" \
    --streams 3 --generations 10 --iters 1 --shards 2 \
    --metrics-out "${dir}/metrics.jsonl"
  bench_step "metrics report (tools/obs_report.py)" \
    python3 "${ROOT}/tools/obs_report.py" "${dir}/metrics.jsonl"
  # On hosts with more than one hardware thread this step — unlike
  # a 1-core dev box, where the gate self-skips — enforces the
  # shards2-vs-shards1 speedup floor and the internal result and
  # final-state equality CHECKs on the uniform and zipf-skewed traces.
  # The JSON (per-shard state high water) is kept as an artifact.
  bench_step "smoke: bench_partitioned_join (zipf)" \
    run_bench_partitioned "${dir}"
  bench_step "smoke: bench_fig3_chained_purge" run_bench_fig3 "${dir}"
  # Default parameters match the checked-in baseline's configuration
  # exactly (rates depend on store size / key cardinality). Fails
  # (exit 1) if any gated rate (int/str insert batch, int/str expand
  # batch, int purge) drops below the gate floor
  # (PUNCTSAFE_BENCH_MIN_RATIO, default 0.75) of BENCH_hot_path.json,
  # printing the measured/baseline ratio table.
  bench_step "hot-path regression gate" \
    "${dir}/bench/bench_hot_path" --iters 1 \
    --baseline "${ROOT}/BENCH_hot_path.json"
  # Gates the arena insert and interleaved insert+purge micro rates at
  # the same floor against BENCH_arena.json; the binary additionally
  # hard-CHECKs steady-state insert_allocs == 0, blocks reclaimed > 0,
  # and result equality against the reference join on every run.
  bench_step "arena regression gate" \
    "${dir}/bench/bench_arena" --iters 1 \
    --baseline "${ROOT}/BENCH_arena.json"
  # Gates the snapshot pause (serial captures/sec), PSCK codec
  # throughput, and restore latency against BENCH_checkpoint.json;
  # the parallel barrier rate is reported but not gated (scheduler
  # noise on starved runners). The binary hard-CHECKs
  # kill/restore/replay result equality in both execution modes and
  # split->merge byte identity on every run.
  bench_step "checkpoint regression gate" \
    "${dir}/bench/bench_checkpoint" --iters 1 \
    --baseline "${ROOT}/BENCH_checkpoint.json"
  if [ "${#BENCH_FAILED[@]}" -ne 0 ]; then
    echo "=== [bench] failed steps: ===" >&2
    printf '  %s\n' "${BENCH_FAILED[@]}" >&2
    exit 1
  fi
}

for config in ${CONFIGS}; do
  case "${config}" in
    format) "${ROOT}/tools/format.sh" --check ;;
    plain) run_config plain "" ;;
    # Portable-fallback leg: the vectorized batch path (tag matching,
    # hash-run detection) compiled with the scalar reference
    # implementations, full ctest — keeps the non-SIMD path from
    # rotting and cross-checks SIMD results against it indirectly
    # (batch_exec_test compares both on every leg).
    scalar) run_config scalar "" ON ;;
    asan)  run_config asan address ;;
    tsan)  run_config tsan thread ;;
    ubsan) run_config ubsan undefined ;;
    bench) run_bench_smoke ;;
    *) echo "unknown config '${config}'" >&2; exit 1 ;;
  esac
done

echo "=== all configs passed: ${CONFIGS} ==="
