#!/usr/bin/env python3
"""Builds simai_bench from this source tree and runs one workload.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
simai_bench and the simai libraries into .bench_build/ (about a minute on
four cores); later calls only check that the build is current. The
report of simai_bench goes to stdout, and the last stdout line is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where `metrics` holds every `end_to_end` metric named in BENCHMARK.json
(--trace 0) or every `per_layer` one (--trace 1), each as
{"value": ..., "unit": ...}. The exit code is 0 only when every repetition
ran and matched its committed digest.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "simai_bench")
# A run measures for --seconds plus one warm-up and the repetition in flight
# when time runs out; past this it is treated as hung.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--traced"] if args.trace else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: simai_bench did not finish in %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("run.py: simai_bench printed no record (exit %d)" % proc.returncode)
    print("\n".join(lines[:-1]))

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit("run.py: simai_bench did not report %s in %s"
                     % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    correct = proc.returncode == 0 and record["reps_failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["reps"],
                      "failed": record["reps_failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
