#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload hosp_batch --seed 1 --seconds 10 --trace 0

Run from the repository root. The library under src/ and the driver are
compiled into .bench_build/ (an incremental no-op after the first run), the
self-test of the benchmark's arithmetic runs, then the driver. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
With --record the run's Σ′ and repair cost are stored in expected.json as
the recorded values for that workload and seed; later runs with that seed
count a mismatch as a failed operation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXPECTED = os.path.join(HERE, "expected.json")
DRIVER_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no src/ beside perfbench/: run from a repository checkout")
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed:", e)
        return 2

    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")])
    if selftest.returncode != 0:
        log("perfbench: self-test failed")
        return 3

    cmd = [os.path.join(BUILD, "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 4
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: driver exited with", proc.returncode)
        return 5
    result = json.loads(lines[-1])

    # Recorded Σ′ and cost: a mismatch on a recorded seed is a failed check.
    check = result.pop("check")
    with open(EXPECTED) as f:
        expected = json.load(f)
    records = expected["records"].setdefault(args.workload, {})
    key = str(args.seed)
    if args.record:
        records[key] = check
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True, ensure_ascii=False)
            f.write("\n")
    elif key in records:
        want = records[key]
        same = want["sigma"] == check["sigma"] and \
            abs(want["cost"] - check["cost"]) <= 1e-9 * max(1.0, abs(want["cost"]))
        if not same:
            log("CHECK FAILED: Σ′ or cost differs from the recorded value for seed", key)
            log("  recorded:", json.dumps(want, ensure_ascii=False))
            log("  got:     ", json.dumps(check, ensure_ascii=False))
            result["correct"] = False
            result["failed"] = min(result["attempted"], result["failed"] + 1)

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
