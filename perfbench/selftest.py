#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark (perfbench/README.md).

    python3 perfbench/selftest.py

Run from the root of a checkout. A tiny-scale smoke run of all four
workloads through perfbench/run.py that checks:
  * every end-to-end metric the workload defines is printed with its unit
    and sample count, and error_rate is 0;
  * the result line carries every BENCHMARK.json metric, untraced and
    traced;
  * a deliberately corrupted reference answer is counted in error_rate and
    fails the run.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

# End-to-end metrics each workload prints, with their units.
EXPECTED = {
    "build": ["setup_s", "build_s", "peak_rss_mb", "disk_mb", "gain_p50_us",
              "gain_p99_us"],
    "query_local": ["setup_s", "build_s", "peak_rss_mb", "disk_mb",
                    "gain_p50_us", "gain_p99_us", "commit_p50_us",
                    "commit_p99_us", "spread_p50_ms", "topk_p50_ms",
                    "topk_p90_ms", "interactions_per_s"],
    "query_remote": ["setup_s", "build_s", "peak_rss_mb", "disk_mb",
                     "gain_p50_us", "gain_p99_us"],
    "ingest": ["setup_s", "build_s", "ingest_s", "peak_rss_mb", "disk_mb",
               "gain_p50_us", "gain_p99_us", "commit_p50_us",
               "commit_p99_us", "interactions_per_s"],
}
UNITS = {"per_s": "1/s", "s": "s", "mb": "MB", "us": "us", "ms": "ms"}
LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)\s+\((\d+) (samples|ops)")


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith("_" + suffix):
            return unit
    raise ValueError(name)


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "0.01"]
    if corrupt:
        cmd.append("--corrupt-reference")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().split("\n")
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3),
                                   int(m.group(4)))
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return proc.returncode, printed, result, proc.stderr


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload, expected in EXPECTED.items():
        rc, printed, result, err = run(workload, trace=0)
        check(rc == 0 and result is not None and result["correct"],
              f"{workload}: clean run exits 0 ({err.strip()[-300:]})")
        for name in expected:
            got = printed.get(name)
            check(got is not None and got[1] == unit_of(name) and got[2] > 0,
                  f"{workload}: prints {name} in {unit_of(name)} with its "
                  f"sample count")
        check(printed.get("error_rate", (1,))[0] == 0.0,
              f"{workload}: error_rate is 0")
        check(set(result["metrics"]) ==
              {m["name"] for m in spec["end_to_end"]},
              f"{workload}: result line has every end_to_end metric")

        rc, printed, result, _ = run(workload, trace=1)
        check(rc == 0 and result is not None and
              set(result["metrics"]) ==
              {m["name"] for m in spec["per_layer"]},
              f"{workload}: traced run has every per_layer metric")

        rc, printed, result, _ = run(workload, trace=0, corrupt=True)
        check(rc != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1
              and printed.get("error_rate", (0,))[0] > 0,
              f"{workload}: a corrupted reference answer counts in "
              f"error_rate and fails the run")
    print("selftest passed")


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    main()
