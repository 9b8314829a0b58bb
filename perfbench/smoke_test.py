#!/usr/bin/env python3
"""Smoke test for the whole-run replay benchmark.

    python3 perfbench/smoke_test.py

Run from the repository root. Runs a tiny-count version of every workload
(--scale smoke), untraced and traced, and checks that each run passes every
correctness check, reports exactly the metrics BENCHMARK.json names with
their units, and that every number is finite. Takes well under a minute
once the benchmark is built.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke"],
                text=True, stdout=subprocess.PIPE)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            problems = []
            if proc.returncode != 0 or not result["correct"]:
                problems.append("run not correct (exit %d)" % proc.returncode)
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append("attempted %d, failed %d" %
                                (result["attempted"], result["failed"]))
            if set(metrics) != set(wanted[trace]):
                problems.append("metric names differ: %s" % sorted(
                    set(metrics) ^ set(wanted[trace])))
            for name, m in metrics.items():
                if m["unit"] != wanted[trace].get(name):
                    problems.append("%s has unit %s" % (name, m["unit"]))
                if not math.isfinite(m["value"]):
                    problems.append("%s is not finite" % name)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-14s trace=%d  %2d metrics  %s" %
                  (workload, trace, len(metrics), status), flush=True)
            failures += bool(problems)
    print("smoke test %s" % ("passed" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
