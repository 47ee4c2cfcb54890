#!/usr/bin/env bash
# CI driver: format gate, then builds and ctests the plain,
# AddressSanitizer, ThreadSanitizer, UndefinedBehaviorSanitizer, and
# scalar (-DPUNCTSAFE_NO_SIMD=ON, portable exec/simd.h fallback)
# configurations (see -DPUNCTSAFE_SANITIZE in the top-level
# CMakeLists.txt), then smoke-runs the standalone benchmark binaries
# in a Release build on tiny inputs. The sanitizer runs are what give
# the parallel executor's differential and queue stress tests their
# teeth; the bench smoke keeps the JSON-emitting binaries (and their
# internal result-equality CHECKs, including the sharded executor's)
# from rotting between full benchmark runs, and additionally exports
# an observability metrics JSONL (bench/metrics.jsonl under the build
# root — uploaded as a CI artifact, rendered with tools/obs_report.py).
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

run_config() {
  local name="$1" sanitize="$2" no_simd="${3:-OFF}"
  local dir="${BUILD_ROOT}/${name}"
  echo "=== [${name}] configure (PUNCTSAFE_SANITIZE='${sanitize}'" \
       "PUNCTSAFE_NO_SIMD=${no_simd}) ==="
  cmake -B "${dir}" -S "${ROOT}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPUNCTSAFE_SANITIZE="${sanitize}" \
    -DPUNCTSAFE_NO_SIMD="${no_simd}" \
    -DPUNCTSAFE_BUILD_BENCHMARKS=OFF \
    -DPUNCTSAFE_BUILD_EXAMPLES=OFF
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [${name}] ctest ==="
  (cd "${dir}" && ctest --output-on-failure --timeout "${CTEST_TIMEOUT}" \
    -j "${JOBS}")
  # The parallel differential sweep (parallel_differential_test runs
  # shards {1,2,3,4} against a tuple-at-a-time serial reference, itself
  # checked against the never-purging reference join) runs as part of
  # ctest above; under ASan it is the lifetime proof for epoch-deferred
  # arena reclamation and under TSan the publication-order proof for
  # cross-shard hand-off, so make its presence explicit in both rather
  # than relying on the suite listing.
  # The batched-expansion differential oracle (batch_size sweep vs the
  # tuple-at-a-time reference, exact emission order, cross-product /
  # verify-heavy / sparse-selection shapes, expand_allocs pin) also
  # runs on the scalar leg: with PUNCTSAFE_NO_SIMD the identical
  # frontier pipeline executes over the portable FilterEqualHashes /
  # HashRunLength fallbacks, which is the behavioral SIMD-vs-scalar
  # cross-check (tools/simd_crosscheck.sh covers compile-only).
  if [ "${name}" = "scalar" ] || [ "${name}" = "asan" ] || \
     [ "${name}" = "tsan" ]; then
    echo "=== [${name}] batched-expansion differential oracle (explicit) ==="
    run_explicit "${dir}/tests/expansion_differential_test"
  fi
  # The server end-to-end test (loopback sockets, background event
  # loop, multi-client fan-out) gets explicit runs on the plain leg
  # and under both sanitizers: ASan covers connection/result buffer
  # lifetimes, TSan the event-loop thread against client threads and
  # the registry's coarse lock.
  if [ "${name}" = "plain" ] || [ "${name}" = "asan" ] || \
     [ "${name}" = "tsan" ]; then
    echo "=== [${name}] server end-to-end (explicit) ==="
    run_explicit "${dir}/tests/server_e2e_test"
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
}

# Release build with benchmarks ON, run on deliberately tiny inputs:
# a correctness smoke (each binary CHECKs serial/parallel/partitioned
# result equality internally), not a measurement.
run_bench_smoke() {
  local dir="${BUILD_ROOT}/bench"
  echo "=== [bench] configure (Release, benchmarks ON) ==="
  cmake -B "${dir}" -S "${ROOT}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DPUNCTSAFE_BUILD_BENCHMARKS=ON \
    -DPUNCTSAFE_BUILD_EXAMPLES=OFF
  echo "=== [bench] build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [bench] smoke: bench_parallel_pipeline (+metrics export) ==="
  "${dir}/bench/bench_parallel_pipeline" \
    --streams 3 --generations 10 --iters 1 --shards 2 \
    --metrics-out "${dir}/metrics.jsonl"
  echo "=== [bench] metrics report (tools/obs_report.py) ==="
  python3 "${ROOT}/tools/obs_report.py" "${dir}/metrics.jsonl"
  echo "=== [bench] smoke: bench_partitioned_join (zipf) ==="
  # On hosts with more than one hardware thread this leg — unlike
  # a 1-core dev box, where the gate self-skips — enforces the
  # shards2-vs-shards1 speedup floor and the internal result and
  # final-state equality CHECKs on the uniform and zipf-skewed traces.
  # The JSON (per-shard state high water) is kept as an artifact.
  "${dir}/bench/bench_partitioned_join" --generations 10 --iters 1 \
    | tee "${dir}/BENCH_partitioned.json"
  echo "=== [bench] smoke: bench_fig3_chained_purge ==="
  "${dir}/bench/bench_fig3_chained_purge" \
    --benchmark_min_time=0.01 --benchmark_filter='windows:20' >/dev/null
  echo "=== [bench] hot-path regression gate ==="
  # Default parameters match the checked-in baseline's configuration
  # exactly (rates depend on store size / key cardinality). Fails
  # (exit 1) if any gated rate (int/str insert batch, int/str expand
  # batch, int purge) drops below the gate floor
  # (PUNCTSAFE_BENCH_MIN_RATIO, default 0.75) of BENCH_hot_path.json,
  # printing the measured/baseline ratio table.
  "${dir}/bench/bench_hot_path" --iters 1 \
    --baseline "${ROOT}/BENCH_hot_path.json"
  echo "=== [bench] arena regression gate ==="
  # Gates the arena insert and interleaved insert+purge micro rates at
  # the same floor against BENCH_arena.json; the binary additionally
  # hard-CHECKs steady-state insert_allocs == 0, blocks reclaimed > 0,
  # and result equality against the reference join on every run.
  "${dir}/bench/bench_arena" --iters 1 \
    --baseline "${ROOT}/BENCH_arena.json"
  echo "=== [bench] checkpoint regression gate ==="
  # Gates the snapshot pause (serial captures/sec), PSCK codec
  # throughput, and restore latency against BENCH_checkpoint.json;
  # the parallel barrier rate is reported but not gated (scheduler
  # noise on starved runners). The binary hard-CHECKs
  # kill/restore/replay result equality in both execution modes and
  # split->merge byte identity on every run.
  "${dir}/bench/bench_checkpoint" --iters 1 \
    --baseline "${ROOT}/BENCH_checkpoint.json"
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
