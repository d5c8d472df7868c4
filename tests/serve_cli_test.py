#!/usr/bin/env python3
"""End-to-end check of the serving REPL (tools/serve_shards.cc).

Generates a tiny dataset, splits it into a 1-shard and a 3-shard
generation directory, and pipes one fixed query script into

  * serve_shards --dir=<1-shard dir>,
  * serve_shards --dir=<3-shard dir>,
  * serve_shards --connect=... against one shard_server --port=0
    process per shard of the 3-shard directory.

All three stdouts must be byte-identical (answers and `! usage:` lines
alike), and each mode's --metrics_json must list the serve.query.*
timers the shared command loop records, one sample per answered query.

    python3 tests/serve_cli_test.py --bin-dir build
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SCRIPT = """\
# one line per query; comments and blank lines are skipped

topk 8
gain 3
commit 3
gain 5
spread 1 2 3
gain 7
reset
topk 4 100
commit 11
gain 2
topk
gain
commit x
refresh
quit
"""

# Answered queries of each kind in SCRIPT (usage errors are not timed).
QUERY_COUNTS = {"serve.query.gain": 4, "serve.query.topk": 2,
                "serve.query.commit": 2, "serve.query.spread": 1,
                "serve.query.reset": 1}


def run(cmd, **kwargs):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          **kwargs)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}\n"
                 f"{proc.stderr}")
    return proc


def timer_counts(path):
    with open(path) as f:
        data = json.load(f)
    return {name: data.get(name, {}).get("count", 0) for name in QUERY_COUNTS}


def serve(bin_dir, mode_args, metrics_json):
    proc = run([os.path.join(bin_dir, "serve_shards"), *mode_args,
                f"--metrics_json={metrics_json}"], input=SCRIPT)
    return proc.stdout


def serve_connect(bin_dir, shard_dir, shards, metrics_json):
    servers = []
    try:
        ports = []
        for shard in range(shards):
            server = subprocess.Popen(
                [os.path.join(bin_dir, "shard_server"), f"--dir={shard_dir}",
                 f"--shard={shard}", "--port=0"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            servers.append(server)
            first = server.stdout.readline().split()
            if not first or first[0] != "listening":
                sys.exit(f"FAIL: shard_server {shard} did not start: {first}")
            ports.append(dict(f.split("=", 1) for f in first[1:])["port"])
        spec = ",".join(f"127.0.0.1:{p}" for p in ports)
        return serve(bin_dir, [f"--connect={spec}"], metrics_json)
    finally:
        for server in servers:
            server.stdin.close()  # EOF on stdin stops the server
        for server in servers:
            server.wait(timeout=30)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding generate_dataset, "
                             "serve_shards and shard_server")
    args = parser.parse_args()
    bin_dir = args.bin_dir

    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "ds")
        run([os.path.join(bin_dir, "generate_dataset"),
             "--preset=flixster_small", "--scale=0.1", f"--out={prefix}",
             "--format=binary"])
        dirs = {}
        for shards in (1, 3):
            dirs[shards] = os.path.join(tmp, f"shards{shards}")
            run([os.path.join(bin_dir, "serve_shards"), "--split", "--build",
                 f"--graph={prefix}.graph.bin", f"--log={prefix}.log.bin",
                 f"--dir={dirs[shards]}", f"--shards={shards}"])

        outputs = {}
        metrics = {}
        for shards in (1, 3):
            name = f"--dir ({shards} shard{'s' if shards > 1 else ''})"
            metrics[name] = os.path.join(tmp, f"dir{shards}.json")
            outputs[name] = serve(bin_dir, [f"--dir={dirs[shards]}"],
                                  metrics[name])
        name = "--connect (3 shard_servers)"
        metrics[name] = os.path.join(tmp, "connect.json")
        outputs[name] = serve_connect(bin_dir, dirs[3], 3, metrics[name])

        failures = []
        reference_name, reference = next(iter(outputs.items()))
        for required in ("! usage: topk K [BUDGET]", "! usage: gain NODE",
                         "! usage: commit NODE", "# session reset",
                         "# 8 seeds"):
            if required not in reference:
                failures.append(f"{reference_name} printed no '{required}'")
        for name, out in outputs.items():
            if out != reference:
                failures.append(f"{name} stdout differs from "
                                f"{reference_name}:\n--- {reference_name}\n"
                                f"{reference}--- {name}\n{out}")
        for name, path in metrics.items():
            counts = timer_counts(path)
            if counts != QUERY_COUNTS:
                failures.append(f"{name} --metrics_json timer counts "
                                f"{counts}, want {QUERY_COUNTS}")

        if failures:
            print("\n".join(f"FAIL: {f}" for f in failures))
            return 1
        print(f"OK: {len(outputs)} modes printed the same "
              f"{len(reference.splitlines())} lines; every metrics dump "
              f"counts {QUERY_COUNTS}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
