#!/usr/bin/env python3
"""Perf-regression guard: diff a BENCH_micro.json run against a baseline.

Both files carry the machine-readable shape bench_micro --json and
serve_shards --bench --json emit (src/common/bench_json.h):

    { "BM_Name/arg": {"ns_per_op": 123.4, "bytes": 0, "threads": 4, ...} }

Extra keys (p50_ns/p95_ns/p99_ns, future additions) are ignored, so
records with and without percentiles mix freely. Records named
"trace.*" are skipped entirely: they are tracing counters riding along
in BENCH_net.json (docs/tracing.md) — occurrence counts, not timings —
and must not enter the regression diff.

Usage:
    tools/bench_compare.py --baseline bench/BENCH_baseline.json \
        --current BENCH_micro.json [--max-regression 0.25] [--update]

Exit codes: 0 = within budget, 1 = at least one regression beyond the
threshold, 2 = usage / IO error.

A benchmark regresses when current ns_per_op > baseline * (1 + threshold).
Benchmarks only in the baseline warn (the run may have been filtered);
benchmarks only in the current run are listed as new (they enter the
baseline on the next --update). Speedups beyond the threshold are
reported as a nudge to refresh the baseline — a stale fast baseline hides
later regressions. The committed baseline is hardware-specific: refresh it
with --update when the reference machine changes, and keep the threshold
loose enough (default 25%) to absorb same-machine noise.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_compare: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict):
        print(f"bench_compare: {path} is not a JSON object", file=sys.stderr)
        sys.exit(2)
    out = {}
    for name, record in data.items():
        if name.startswith("trace."):
            continue  # tracing counters, not benchmark timings
        if not isinstance(record, dict) or "ns_per_op" not in record:
            print(f"bench_compare: {path}: '{name}' has no ns_per_op",
                  file=sys.stderr)
            sys.exit(2)
        out[name] = float(record["ns_per_op"])
    return out


def main():
    parser = argparse.ArgumentParser(
        description="fail when BENCH json regresses past the baseline")
    parser.add_argument("--baseline", required=True,
                        help="committed reference, e.g. "
                             "bench/BENCH_baseline.json")
    parser.add_argument("--current", required=True,
                        help="this run's output, e.g. BENCH_micro.json")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional ns_per_op growth "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current run "
                             "and exit 0")
    args = parser.parse_args()

    current_raw = None
    try:
        with open(args.current, "r", encoding="utf-8") as fh:
            current_raw = fh.read()
    except OSError as err:
        print(f"bench_compare: cannot read {args.current}: {err}",
              file=sys.stderr)
        return 2

    if args.update:
        try:
            with open(args.baseline, "w", encoding="utf-8") as fh:
                fh.write(current_raw)
        except OSError as err:
            print(f"bench_compare: cannot write {args.baseline}: {err}",
                  file=sys.stderr)
            return 2
        print(f"bench_compare: baseline {args.baseline} updated from "
              f"{args.current}")
        return 0

    baseline = load(args.baseline)
    current = load(args.current)

    regressions = []
    speedups = []
    for name in sorted(baseline):
        if name not in current:
            print(f"WARN  {name}: in baseline but not in this run "
                  f"(filtered out?)")
            continue
        base_ns = baseline[name]
        cur_ns = current[name]
        if base_ns <= 0.0:
            continue
        ratio = cur_ns / base_ns
        line = (f"{name}: {base_ns:.1f} -> {cur_ns:.1f} ns/op "
                f"({(ratio - 1.0) * 100.0:+.1f}%)")
        if ratio > 1.0 + args.max_regression:
            regressions.append(line)
            print(f"FAIL  {line}")
        elif ratio < 1.0 - args.max_regression:
            speedups.append(line)
            print(f"FAST  {line}  (consider --update)")
        else:
            print(f"OK    {line}")
    for name in sorted(set(current) - set(baseline)):
        print(f"NEW   {name}: {current[name]:.1f} ns/op "
              f"(enters the baseline on --update)")

    if regressions:
        print(f"bench_compare: {len(regressions)} benchmark(s) regressed "
              f"past {args.max_regression * 100.0:.0f}%", file=sys.stderr)
        return 1
    print(f"bench_compare: {len(baseline)} baseline benchmark(s) within "
          f"budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
