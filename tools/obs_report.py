#!/usr/bin/env python3
"""Renders punctsafe metrics JSONL (obs::MetricsExporter output) as
human-readable tables.

Usage:
  tools/obs_report.py metrics.jsonl [more.jsonl ...]
  bench_parallel_pipeline --metrics-out - | tools/obs_report.py -

By default only the last snapshot per (file, executor) pair is shown —
the quiescent end-of-run state; --all renders every line. Only the
Python standard library is used, so the script runs anywhere CI does.
"""

import argparse
import json
import sys


def fmt_ns(ns):
    """Nanoseconds to a compact human unit."""
    ns = float(ns)
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.1f}{unit}"
    return f"{ns:.0f}ns"


def fmt_count(n):
    n = float(n)
    for unit, scale in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if n >= scale:
            return f"{n / scale:.1f}{unit}"
    return f"{n:.0f}"


def hist_cell(h, fmt):
    if not h or h.get("count", 0) == 0:
        return "-"
    return f"{fmt(h['p50'])}/{fmt(h['p95'])}/{fmt(h['p99'])}"


def render_snapshot(snap, out):
    head = (
        f"executor={snap.get('executor', '?')}"
        f" seq={snap.get('seq', '?')}"
        f" results={fmt_count(snap.get('results', 0))}"
        f" live_tuples={snap.get('live_tuples', 0)}"
        f" tuple_hw={snap.get('tuple_high_water', 0)}"
        f" punct_hw={snap.get('punctuation_high_water', 0)}"
    )
    # Execution-mode tags (absent in pre-v2 JSONL): which SIMD dispatch
    # produced the run and the configured batch capacity.
    if snap.get("simd_dispatch"):
        head += f" simd={snap['simd_dispatch']}"
    if snap.get("batch_size"):
        head += f" batch={snap['batch_size']}"
    print(head, file=out)

    ops = snap.get("operators", [])
    if not ops:
        print("  (no operator entries: observability was off)\n", file=out)
        return

    cols = [
        ("op/shard", lambda e: f"{e['op']}/{e['shard']}"
         + ("*" if e.get("partitioned") else "")),
        ("ins", lambda e: fmt_count(e.get("inserted", 0))),
        ("purged", lambda e: fmt_count(e.get("purged", 0))),
        ("live", lambda e: fmt_count(e.get("live", 0))),
        ("hw", lambda e: fmt_count(e.get("high_water", 0))),
        ("emit", lambda e: fmt_count(e.get("results_emitted", 0))),
        ("puncts", lambda e: fmt_count(e.get("puncts_received", 0))),
        ("routed", lambda e: fmt_count(e.get("routed_tuples", 0))),
        ("stalls", lambda e: fmt_count(e.get("queue_stalls", 0))),
        ("lat p50/95/99", lambda e: hist_cell(e.get("latency_ns"), fmt_ns)),
        ("plag p50/95/99",
         lambda e: hist_cell(e.get("punct_lag"), fmt_count)),
        ("sweep p50/95/99",
         lambda e: hist_cell(e.get("sweep_ns"), fmt_ns)),
        ("qdepth p50/95/99",
         lambda e: hist_cell(e.get("queue_depth"), fmt_count)),
    ]
    rows = [[name for name, _ in cols]]
    rows += [[cell(e) for _, cell in cols] for e in ops]
    widths = [max(len(r[i]) for r in rows) for i in range(len(cols))]
    for j, row in enumerate(rows):
        line = "  " + "  ".join(c.rjust(w) for c, w in zip(row, widths))
        print(line, file=out)
        if j == 0:
            print("  " + "-" * (len(line) - 2), file=out)
    print("  (* = hash-partitioned operator group)\n", file=out)


def load_lines(path):
    stream = sys.stdin if path == "-" else open(path, encoding="utf-8")
    with stream:
        for lineno, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as err:
                print(f"{path}:{lineno}: skipping bad JSON ({err})",
                      file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(
        description="Render punctsafe metrics JSONL as tables.")
    parser.add_argument("files", nargs="+",
                        help="JSONL files from obs::MetricsExporter"
                             " ('-' for stdin)")
    parser.add_argument("--all", action="store_true",
                        help="render every snapshot line, not just the"
                             " last one per executor")
    args = parser.parse_args()

    exit_code = 0
    for path in args.files:
        print(f"== {path} ==")
        snaps = list(load_lines(path))
        if not snaps:
            print("  (no snapshots)\n")
            exit_code = 1
            continue
        if not args.all:
            last = {}
            for snap in snaps:
                last[snap.get("executor", "?")] = snap
            snaps = list(last.values())
        for snap in snaps:
            render_snapshot(snap, sys.stdout)
    return exit_code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piped into `head`/`less` that exited early — not an error.
        sys.exit(0)
