#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

The first call configures and compiles perfbench/ (and the simulator sources it
links) into .bench_build/; later calls only re-check the build. The benchmark
binary's standard output is passed through; its last line is the JSON result.
A traced run (--trace 1) also writes Chrome trace-event JSON to
.bench_build/trace-<workload>-seed<N>.json. The exit status is non-zero when
the build fails, an output check fails, or the run overruns its time limit.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "vfm_perfbench"
EXPECTED = HERE / "expected_signatures.txt"
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "vfm_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return BINARY.exists()


def run(args, extra=()):
    """Runs the benchmark binary; returns (exit status, captured stdout)."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", str(EXPECTED), *extra]
    if args.trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark overran {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    status, out = run(args)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        sys.stderr.write(out)
        print("benchmark printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
