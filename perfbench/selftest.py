#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It builds the benchmark (as run.py does) and shows that:
  1. a wrong stored signature fails the run: failed == attempted
     (failed_ratio 1) and a non-zero exit;
  2. a guest that exits non-zero fails the run the same way;
  3. a short run of every workload completes with correct outputs and reports
     every end-to-end metric of BENCHMARK.json, and a short traced run reports
     every per-layer metric.
Takes about a minute: one repetition of trap_mix's fixed work is ~5 s.
"""

import json
import subprocess
import sys

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def invoke(*args):
    cmd = [str(bench.BINARY), "--seconds", "0", *args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=bench.RUN_TIMEOUT_S)
    return proc.returncode, json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def expect_failed_run(label, *args):
    status, result = invoke("--workload", "code_patch", *args)
    ok = (status != 0 and result["correct"] is False and result["attempted"] > 0
          and result["failed"] == result["attempted"])
    print(f"{'ok  ' if ok else 'FAIL'} {label}: exit {status}, "
          f"failed {result['failed']} of {result['attempted']}")
    return ok


def expect_complete_run(label, metric_names, *args):
    status, result = invoke("--workload", "all", "--expected", str(bench.EXPECTED), *args)
    missing = [f"{w}.{m}" for w in ("trap_mix", "multihart_compute", "fleet_serve",
                                     "code_patch")
               for m in metric_names if f"{w}.{m}" not in result["metrics"]]
    ok = status == 0 and result["correct"] is True and result["failed"] == 0 and not missing
    print(f"{'ok  ' if ok else 'FAIL'} {label}: exit {status}, "
          f"failed {result['failed']} of {result['attempted']}"
          + (f", missing metrics {missing}" if missing else ""))
    return ok


def main():
    if not bench.build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    wrong = bench.BUILD / "selftest_wrong_signatures.txt"
    wrong.write_text("code_patch 0000000000000000\n")
    results = [
        expect_failed_run("wrong stored signature", "--expected", str(wrong)),
        expect_failed_run("guest exits non-zero", "--expected", str(bench.EXPECTED),
                          "--selftest-fail-guest"),
        expect_complete_run("short run of every workload",
                            [m["name"] for m in SPEC["end_to_end"]]),
        expect_complete_run("short traced run of every workload",
                            [m["name"] for m in SPEC["per_layer"]], "--trace", "1"),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
