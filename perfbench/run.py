#!/usr/bin/env python3
"""End-to-end benchmark entry point (perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and through it the
library sources of the checkout) in Release mode, generates the seeded
inputs, builds the served generation in its own process where the workload
needs one, runs the workload, and prints every line of bench_e2e's report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. The full report (fingerprint, echoed
inputs, every metric with its sample count) is kept in
<build dir>/results/ for perfbench/compare.py. Exits non-zero on any wrong
answer, failed operation, missing metric or failed step.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("build", "query_local", "query_remote", "ingest")
# Builds of the served generation before the run, and as many again after
# it (build_s is the median of both): the ingest base builds in ~0.5 s, so
# it takes more of them to settle.
SERVING_BUILDS = {"query_local": 2, "query_remote": 2, "ingest": 4}
DEADLINE_S = 170.0


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def source_id(root):
    """The git commit when the checkout is a repository, else a digest of
    the library sources (the checkout the benchmark runs in may not be)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build_bench(root, build_dir, deadline):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        step(["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=Release"], deadline, quiet=True)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", cmake_dir, "--target", "bench_e2e", "-j", jobs],
         deadline, quiet=True)
    return os.path.join(cmake_dir, "bench_e2e")


def step(cmd, deadline, quiet=False):
    """Runs one step to completion, killing it at the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail(f"out of time before: {' '.join(cmd)}")
    out = subprocess.PIPE if quiet else None
    try:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT
                              if quiet else None, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        if quiet and proc.stdout:
            sys.stderr.write(proc.stdout[-4000:])
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def keep_traces(work, traces, args):
    """Keeps the traced run's Chrome trace files, one set per workload."""
    if not args.trace:
        return
    os.makedirs(traces, exist_ok=True)
    for name in sorted(os.listdir(work)):
        if name.endswith(".json"):
            shutil.copy(os.path.join(work, name),
                        os.path.join(traces, f"{args.workload}-{name}"))
    log(f"Chrome trace files kept in {traces}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The dataset is fixed (the preset's own seed) so that runs with
    # different --seed values measure the same data; --data-seed selects
    # another dataset for checking a claim on data not used while the
    # change was written (perfbench/README.md).
    parser.add_argument("--data-seed", type=int, default=0)
    # Self-test knobs (perfbench/selftest.py); the benchmark never sets them.
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 1:
        fail("--seed must be >= 1")

    start = time.monotonic()
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    for needed in (spec_path, os.path.join(root, "CMakeLists.txt"),
                   os.path.join(root, "src")):
        if not os.path.exists(needed):
            fail(f"not a complete checkout: {needed} is missing")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(root, ".bench_build"))
    # Compiler and program temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    # The first run in a checkout compiles the library; later runs only
    # check that the build is current.
    bench = build_bench(root, build_dir, start + 880.0)
    deadline = time.monotonic() + DEADLINE_S

    work = os.path.join(build_dir, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--work={work}", f"--scale={args.scale}",
              f"--data_seed={args.data_seed}"]
    try:
        step([bench, "--mode=generate"] + common, deadline)
        if args.workload in SERVING_BUILDS:
            step([bench, "--mode=build", f"--trace={args.trace}",
                  f"--builds={SERVING_BUILDS[args.workload]}"] + common,
                 deadline)
        cmd = [bench, "--mode=run", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--commit={source_id(root)}",
               f"--builds={SERVING_BUILDS.get(args.workload, 0)}"] + common
        if args.corrupt_reference:
            cmd.append("--corrupt_reference")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("timed out: the measured run")
        keep_traces(work, os.path.join(build_dir, "traces"), args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"bench_e2e printed no report (exit {proc.returncode})")

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-data{args.data_seed}"
            f"-scale{args.scale}-trace{args.trace}.json")
    with open(os.path.join(results, name), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    metrics = {}
    missing = []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(report["correct"]) and proc.returncode == 0 and not missing
    if missing:
        log("missing or mis-unit metrics: " + ", ".join(missing))
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
