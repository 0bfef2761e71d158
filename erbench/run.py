#!/usr/bin/env python3
"""Builds and runs the erlb end-to-end benchmark (erbench).

Run from the repository root:

    python3 erbench/run.py --workload ds1_skewed --seed 1 --seconds 20 --trace 0

The first run configures and builds erbench (and the erlb libraries it
links) into .bench_build/ (or $CARGO_TARGET_DIR when set); later runs only
re-check the build. Build output goes to stderr. The benchmark's own
stdout is passed through: its last line is the result JSON object.
Arguments other than the four above (--scale, --wrong-matcher) are passed
to erbench unchanged; see WORKLOADS.md.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "erbench-cmake")


def build(out_dir, env):
    """Configures (once) and builds erbench; returns the binary path."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr, check=True, env=env)
        subprocess.run(
            ["cmake", "--build", out_dir, "--target", "erbench", "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr, check=True, env=env)
    return os.path.join(out_dir, "erbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args, extra = parser.parse_known_args()

    # Compiler and runtime temporary files stay inside the build tree.
    out_dir = build_dir()
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    try:
        os.makedirs(env["TMPDIR"], exist_ok=True)
        binary = build(out_dir, env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"erbench build failed: {err}", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace] + extra
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
