#!/usr/bin/env python3
"""Self-check of the erbench benchmark (tiny scale, about a minute).

Run from the repository root:

    python3 erbench/selfcheck.py

1. Every workload named in BENCHMARK.json runs at tiny scale with
   --trace 0 and --trace 1; each result must be correct and carry exactly
   the end_to_end (trace 0) or per_layer (trace 1) metric names of
   BENCHMARK.json, each with its declared unit.
2. A deliberately wrong matcher (one that drops about one match in 50)
   must make the output checks fail: correct is false, failed > 0 and the
   per-layer failed_frac > 0.

Exits 0 iff every check passed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def expect(condition, message):
    """Raises AssertionError when `condition` is false (kept under -O)."""
    if not condition:
        raise AssertionError(message)


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "3",
               "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(
            f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, declared, label):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(result["correct"] is True, f"{label}: not correct")
    expect(result["failed"] == 0, f"{label}: {result['failed']} failed")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    names = set(result["metrics"])
    missing = sorted(set(declared) - names)
    extra = sorted(names - set(declared))
    expect(not missing and not extra,
           f"{label}: missing {missing}, undeclared {extra}")
    for name, metric in result["metrics"].items():
        expect(metric["unit"] == declared[name],
               f"{label}: {name} unit {metric['unit']} != {declared[name]}")
        expect(isinstance(metric["value"], (int, float)),
               f"{label}: {name} is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            try:
                check_result(run(workload, trace), declared, label)
                print(f"ok    {label}")
            except AssertionError as err:
                failures += 1
                print(f"FAIL  {err}")

    label = "small_blocks --trace 1 --wrong-matcher 50"
    try:
        result = run("small_blocks", 1, ("--wrong-matcher", "50"))
        expect(result["correct"] is False, f"{label}: reported correct")
        expect(result["failed"] > 0, f"{label}: no failed operation")
        frac = result["metrics"]["failed_frac"]["value"]
        expect(frac > 0, f"{label}: failed_frac is {frac}")
        print(f"ok    {label} (failed {result['failed']} of "
              f"{result['attempted']}, failed_frac {frac:.4f})")
    except AssertionError as err:
        failures += 1
        print(f"FAIL  {err}")

    print("selfcheck:", "passed" if failures == 0 else f"{failures} failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
