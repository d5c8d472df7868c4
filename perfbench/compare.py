#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results (perfbench/README.md).

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by perfbench/run.py, or directories
of them (<build dir>/results/). Results are grouped by workload, dataset and
traced or untraced run; for each group on both sides the step prints every
metric's median, quartiles and change.

Results measured on different hardware or builds are "not comparable": when
any fingerprint field (nproc, CPU model, L3 size, gain-kernel backend, build
type, INFLUMAX_OBS_OFF) differs, the group is reported as such and never
passes or fails. A gated end-to-end metric (BENCHMARK.json) is a regression
when its median is worse than BASE's by more than its bound.

Exit code: 0 no regression, 1 a regression, 3 something not comparable
(and no regression).
"""

import argparse
import json
import os
import statistics
import sys

HIGHER_IS_BETTER = {"interactions_per_s"}


def load(paths):
    results = []
    for path in paths:
        files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
                  if f.endswith(".json")] if os.path.isdir(path) else [path])
        for f in files:
            with open(f) as fh:
                results.append(json.load(fh))
    groups = {}
    for r in results:
        key = (r["workload"], r["echo"].get("dataset", ""), r["trace"])
        groups.setdefault(key, []).append(r)
    return groups


def fingerprint(result):
    return {k: v for k, v in result["echo"].items()
            if k.startswith("fingerprint.")}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("new")
    parser.add_argument("--spec", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    gated = {m["name"]: m for m in spec["end_to_end"]}

    base = load(args.base)
    new = load([args.new])
    regression = False
    not_comparable = False
    for key in sorted(set(base) | set(new)):
        workload, dataset, trace = key
        title = f"{workload} [{dataset}] (trace {trace})"
        if key not in base or key not in new:
            print(f"{title}: only on one side, skipped")
            continue
        prints = {json.dumps(fingerprint(r), sort_keys=True)
                  for r in base[key] + new[key]}
        if len(prints) > 1:
            not_comparable = True
            print(f"{title}: NOT COMPARABLE, fingerprints differ:")
            for p in sorted(prints):
                print(f"  {p}")
            continue
        print(f"{title}: {len(base[key])} base runs, {len(new[key])} new runs")
        names = sorted(set().union(*(r["metrics"] for r in base[key])) &
                       set().union(*(r["metrics"] for r in new[key])))
        for name in names:
            b = [r["metrics"][name]["value"] for r in base[key]
                 if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[key]
                 if name in r["metrics"]]
            unit = base[key][0]["metrics"].get(name, {}).get("unit", "")
            bq1, bmed, bq3 = quartiles(b)
            _, nmed, _ = quartiles(n)
            change = (nmed / bmed - 1.0) if bmed else 0.0
            higher = (gated[name]["better"] == "higher" if name in gated
                      else name in HIGHER_IS_BETTER)
            worse = -change if higher else change
            verdict = ""
            if name in gated and trace == 0:
                bound = gated[name]["bound"]
                if worse > bound:
                    verdict = f"REGRESSION beyond bound {bound:.0%}"
                    regression = True
                else:
                    verdict = f"within bound {bound:.0%}"
            elif bmed and abs(nmed - bmed) <= (bq3 - bq1):
                verdict = "unresolved (inside base spread)"
            print(f"  {name:34s} {bmed:14.6g} -> {nmed:14.6g} {unit:6s} "
                  f"{change:+8.1%}  base IQR {bq1:.4g}..{bq3:.4g}  {verdict}")
    if regression:
        return 1
    return 3 if not_comparable else 0


if __name__ == "__main__":
    sys.exit(main())
