#!/usr/bin/env python3
"""Builds and runs the end-to-end CJQ benchmark (see README.md here).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload chain3_eager_purge --seed 1 \
        --seconds 28 --trace 0

builds the library and the benchmark from source (CMake, Release) into
$CARGO_TARGET_DIR or .bench_build, runs the harness self-tests, then
runs one workload. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Steadiness mode runs a workload N times with seeds seed..seed+N-1 and
prints, per metric, the median, the quartiles and IQR / median:

    python3 perfbench/run.py --workload chain3_sharded_skew --seed 1 \
        --seconds 28 --trace 0 --repeat 10
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; returns the binary directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: library sources (src/) not found next to perfbench/")
        sys.exit(2)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: cmake configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("run.py: build failed")
        sys.exit(2)
    return build_dir


def expected_names(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]], [w["name"] for w in spec["workloads"]]


def run_once(bin_dir, workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (stdout lines, result dict)."""
    cmd = [os.path.join(bin_dir, "cjq_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark timed out")
        sys.exit(1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("run.py: benchmark failed with exit code %d" % proc.returncode)
        sys.stderr.write(proc.stdout)
        sys.exit(1)
    return lines, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="steadiness mode: N runs on consecutive seeds")
    args = ap.parse_args()

    names, workloads = expected_names(args.trace)
    if args.workload not in workloads:
        log("run.py: unknown workload %r (BENCHMARK.json has %s)"
            % (args.workload, ", ".join(workloads)))
        sys.exit(2)
    bin_dir = build(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    selftest = subprocess.run([os.path.join(bin_dir, "harness_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("run.py: harness self-tests failed")
        sys.exit(1)

    runs = []
    env_line = ""
    for i in range(args.repeat):
        lines, result = run_once(bin_dir, args.workload, args.seed + i,
                                 args.seconds, args.trace)
        got = list(result["metrics"].keys())
        if got != names:
            log("run.py: metrics %s do not match BENCHMARK.json %s" % (got, names))
            sys.exit(1)
        env_line = next((l for l in lines if l.startswith("# env ")), env_line)
        runs.append(result)
        if args.repeat == 1:
            print("\n".join(lines[:-1]))
        else:
            log("run %d/%d seed %d: correct=%s" % (i + 1, args.repeat, args.seed + i,
                                                  result["correct"]))

    if args.repeat == 1:
        print(json.dumps(runs[0]))
        return

    # Steadiness: no best-of-N, only the distribution.
    print(env_line)
    print("%-40s %14s %14s %14s %10s" % ("metric", "q1", "median", "q3", "iqr/med"))
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print("%-40s %14.6g %14.6g %14.6g %10.4f" % (name, q1, med, q3, spread))
    env = dict(re.findall(r'(\w+)=("[^"]*"|\S+)', env_line))
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "runs": args.repeat,
        "env": {k: v.strip('"') for k, v in env.items()},
        "summary": summary,
    }))


if __name__ == "__main__":
    main()
