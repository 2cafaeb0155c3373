#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark from source into .bench_build/perfbench (Release);
later runs only rebuild what changed. The program's own output is passed
through; the last stdout line is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). A per-layer metric a workload does not exercise
reads 0: that layer is bypassed on that workload. A traced run also writes
its spans as Chrome trace JSON under .bench_build/perfbench/traces and
checks them with the repository's trace_check.

Exit status is non-zero, with no result line, when the build fails or the
program cannot run; and non-zero, with the result line, when an answer
check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("exact_solve", "serve_wire", "corpus_stream")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds; compiler output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    return ({m["name"]: m["unit"] for m in contract["end_to_end"]},
            {m["name"]: m["unit"] for m in contract["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    end_to_end, per_layer = load_contract()
    build()

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s-%d.json" % (args.workload, args.seed))
        command += ["--trace-out", trace_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(done.stdout)
        fail("no result line (exit %d)" % done.returncode)
    for line in lines[:-1]:
        print(line)

    wanted = per_layer if args.trace else end_to_end
    measured = result["metrics"]
    correct = bool(result["correct"]) and done.returncode == 0
    for name, metric in measured.items():
        if wanted.get(name) != metric["unit"]:
            print("perfbench: metric %s [%s] is not in BENCHMARK.json with "
                  "that unit" % (name, metric["unit"]), file=sys.stderr)
            correct = False
    missing = [n for n in end_to_end if n not in measured] if not args.trace else []
    if missing:
        print("perfbench: end-to-end metrics missing: " + ", ".join(missing),
              file=sys.stderr)
        correct = False
    if trace_path is not None:
        check = subprocess.run(
            [os.path.join(BUILD, "trace_check"), trace_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(check.stdout.strip())
        correct = correct and check.returncode == 0

    metrics = {}
    for name, unit in wanted.items():
        value = measured.get(name, {"value": 0})["value"]
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
