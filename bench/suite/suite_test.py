#!/usr/bin/env python3
"""Self-tests of simai_bench (ctests of the suite's own build).

    suite_test.py smoke BINARY BENCHMARK_JSON
        Every workload at smoke width, untraced and traced: the committed
        smoke digests hold, every metric BENCHMARK.json names is printed
        with its unit, the JSON record parses, traced digests equal
        untraced ones and fig6 w1 and w4 share a digest.
    suite_test.py seed BINARY EXPECTED_JSON
        --seed on a held-out seed: serve's digest moves off the committed
        default and repeats exactly across runs and arming; a workload the
        seed does not reach still matches its committed digest.
"""
import json
import subprocess
import sys

# Not used when the committed digests were made.
HELD_OUT_SEED = "977"
HOST_FACTS = ("nproc", "cpu_model", "compiler", "build_type", "git_sha")

failures = []


def check(ok, what):
    print(("[PASS] " if ok else "[FAIL] ") + what)
    if not ok:
        failures.append(what)


def run(binary, workload, *extra):
    """(exit code, printed report lines, parsed JSON record)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--smoke", "--seconds", "0", *extra],
        stdout=subprocess.PIPE, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = None
    check(record is not None,
          "%s %s: last line is a JSON record" % (workload, " ".join(extra)))
    if record is None:
        record = {"metrics": {}, "reps_failed": -1, "digest": None, "host": {}}
    return proc.returncode, lines[:-1], record


def smoke(binary, benchmark_json):
    with open(benchmark_json) as f:
        spec = json.load(f)
    digests = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for traced in (False, True):
            tag = workload + (" --traced" if traced else "")
            rc, report, rec = run(binary, workload,
                                  *(["--traced"] if traced else []))
            check(rc == 0 and rec["reps_failed"] == 0,
                  tag + ": every repetition matched")
            units = {}
            for line in report:
                parts = line.split()
                if len(parts) >= 3:
                    units[parts[0]] = parts[2]
            for m in spec["end_to_end"] + (spec["per_layer"] if traced else []):
                check(units.get(m["name"]) == m["unit"] and
                      rec["metrics"].get(m["name"], {}).get("unit") == m["unit"],
                      "%s: reports %s in %s" % (tag, m["name"], m["unit"]))
            check(all(k in rec["host"] for k in HOST_FACTS),
                  tag + ": record carries host facts")
            digests[workload, traced] = rec["digest"]
        check(digests[workload, False] == digests[workload, True],
              workload + ": traced digest equals untraced")
    check(digests["fig6-p2-512", False] == digests["fig6-p2-512-w4", False],
          "fig6 w1 and w4 share one digest")


def seed(binary, expected_json):
    with open(expected_json) as f:
        committed = json.load(f)["smoke"]
    runs = [run(binary, "serve-nl-4k", "--seed", HELD_OUT_SEED, *extra)
            for extra in ([], [], ["--traced"])]
    for rc, _, rec in runs:
        check(rc == 0 and rec["reps_failed"] == 0,
              "serve --seed %s: repetitions agree" % HELD_OUT_SEED)
    first = runs[0][2]["digest"]
    check(first != committed["serve-nl-4k"]["full"],
          "serve digest moves off the default seed's")
    check(runs[1][2]["digest"] == first, "serve digest repeats across runs")
    check(runs[2][2]["digest"] == first, "serve traced digest equals untraced")
    rc, _, rec = run(binary, "fig6-p2-512", "--seed", HELD_OUT_SEED)
    check(rc == 0 and rec["digest"] == committed["fig6-p2-512"]["full"],
          "fig6 under a held-out seed still matches its committed digest")


def main():
    if len(sys.argv) != 4 or sys.argv[1] not in ("smoke", "seed"):
        sys.exit(__doc__)
    {"smoke": smoke, "seed": seed}[sys.argv[1]](sys.argv[2], sys.argv[3])
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
