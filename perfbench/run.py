#!/usr/bin/env python3
"""Whole-run replay benchmark for cmvrp (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench` (the cmvrp libraries plus
perfbench.cpp) into $CARGO_TARGET_DIR or .bench_build, generates the
workload's inputs from --seed in a separate process, then runs the program
under test once per process for --seconds seconds: each process is one
user-visible run (set-up, every ingest, finish, close). The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 spends half the time on
untraced runs and half on traced ones and reports the per-layer metrics.
--scale smoke shrinks every input (smoke_test.py uses it).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Workload and metric names and units come from BENCHMARK.json.
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Values that are a pure function of (workload, seed): equal in every run.
DETERMINISTIC = ("msgs_per_job", "failed_frac")
# Stop starting runs once this much wall time is gone, so the whole
# command ends well inside 180 s even when one run is slow.
WALL_LIMIT_S = 140.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    bdir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-G", "Unix Makefiles",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "-j",
                    str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def file_sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Runner:
    """Runs the program under test, one user-visible run per process."""

    def __init__(self, binary, args, input_dir, work_dir, started):
        self.base = [binary, "run", "--workload", args.workload,
                     "--seed", str(args.seed), "--scale", args.scale,
                     "--input", input_dir, "--work", work_dir]
        self.work_dir = work_dir
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def reps(self, budget_s, min_reps, extra=()):
        out = []
        begin = time.monotonic()
        last = 0.0
        while True:
            now = time.monotonic()
            if now - self.started + last > WALL_LIMIT_S and out:
                break
            if len(out) >= min_reps and now - begin + last > budget_s:
                break
            # Every run starts from an empty work directory, as a fresh
            # command would (no earlier outcome trail to truncate).
            shutil.rmtree(self.work_dir, ignore_errors=True)
            proc = subprocess.run(self.base + list(extra), text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
            last = time.monotonic() - now
            self.attempted += 1
            if proc.returncode != 0:
                self.failed += 1
                self.problems.append("run exited %d: %s" %
                                     (proc.returncode, proc.stderr.strip()))
                break
            rep = json.loads(proc.stdout.strip().splitlines()[-1])
            bad = [name for name, ok in rep["checks"].items() if not ok]
            if bad:
                self.failed += 1
                self.problems.append("checks failed: " + ", ".join(bad))
            out.append(rep)
        return out


def batch_percentile(reps, q):
    """Nearest-rank percentile of the batch latencies, taken per run with
    the median over runs when each run has at least 1000 batches (one slow
    run then moves it less than pooling would); otherwise over the pooled
    samples of all runs, so at least ten samples lie beyond a p99."""
    if len(reps[0]["batch_ms"]) < 1000:
        return nearest_rank(sorted(x for r in reps for x in r["batch_ms"]), q)
    return statistics.median(nearest_rank(sorted(r["batch_ms"]), q)
                             for r in reps)


def end_to_end(reps):
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "total_s": statistics.median(r["total_s"] for r in reps),
        "jobs_per_s": statistics.median(r["arrivals"] / r["serve_s"]
                                        for r in reps),
        "batch_p50_ms": batch_percentile(reps, 0.50),
        "batch_p99_ms": batch_percentile(reps, 0.99),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024,
        "msgs_per_job": reps[0]["msgs_per_job"],
    }, sum(len(r["batch_ms"]) for r in reps)


def outcome_problems(reps, store_path):
    """Outcome digests must agree across every run of this (build, seed):
    the runs made here, traced or not, and those of earlier invocations.
    The counter digest covers obs-gated fields, so it is compared within
    one tracing mode only."""
    problems = []
    seen = {}
    for r in reps:
        mode = "traced" if r["traced"] else "untraced"
        facts = dict(r["digests"])
        facts["counters." + mode] = facts.pop("counters", None)
        for key in DETERMINISTIC:
            facts[key] = repr(r[key])
        for key, value in facts.items():
            if value is None:
                continue
            if seen.setdefault(key, value) != value:
                problems.append("%s differs between runs" % key)
    stored = {}
    if os.path.exists(store_path):
        with open(store_path) as f:
            stored = json.load(f)
    for key, value in seen.items():
        if stored.setdefault(key, value) != value:
            problems.append("%s differs from an earlier run of this seed" % key)
    os.makedirs(os.path.dirname(store_path), exist_ok=True)
    with open(store_path, "w") as f:
        json.dump(stored, f, indent=1, sort_keys=True)
    return sorted(set(problems))


def layer_table(workload, seed, layers):
    rows = ["| layer | self ms |", "| --- | --- |"]
    self_ms = {k[:-len(".self_ms")]: v for k, v in layers.items()
               if k.endswith(".self_ms")}
    total = sum(self_ms.values())
    for layer, ms in self_ms.items():
        if ms > 0:
            rows.append("| %s | %.3f (%.1f%%) |" %
                        (layer, ms, 100 * ms / total))
    rows.append("| obs.trace_overhead | %.4f |" % layers["obs.trace_overhead"])
    return "\n".join(["%s, seed %d (traced run)" % (workload, seed), ""] + rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args()
    started = time.monotonic()
    # On SIGTERM, unwind: subprocess.run then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    tag = "%s-%d-%s-%d" % (args.workload, args.seed, args.scale, os.getpid())
    run_dir = os.path.join(build_root, "runs", tag)
    out_dir = os.path.join(build_root, "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        gen_start = time.monotonic()
        gen = subprocess.run([binary, "gen", "--workload", args.workload,
                              "--seed", str(args.seed), "--scale", args.scale,
                              "--out", os.path.join(run_dir, "input")])
        if gen.returncode != 0:
            log("perfbench: input generation failed")
            return 1
        print("input generation: %.3f s (context only, not timed)" %
              (time.monotonic() - gen_start))

        runner = Runner(binary, args, os.path.join(run_dir, "input"),
                        os.path.join(run_dir, "work"), started)
        spans_path = os.path.join(out_dir, "%s-seed%d.trace.json" %
                                  (args.workload, args.seed))
        # One warm-up run, checked but not reported: the first process
        # after `gen` meets colder caches than the runs that follow it.
        warm_start = time.monotonic()
        runner.reps(0, 1)
        budget = args.seconds - (time.monotonic() - warm_start)
        if args.trace:
            plain = runner.reps(budget / 2, 1)
            traced = runner.reps(budget / 2, 1,
                                 ("--traced", "--spans", spans_path))
        else:
            plain = runner.reps(budget, 3)
            traced = []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    reps = plain + traced
    problems = list(runner.problems)
    if not plain or (args.trace and not traced):
        problems.append("no completed run")
    else:
        store = os.path.join(build_root, "digests", "%s-%s-%s-%d.json" % (
            file_sha(binary), args.scale, args.workload, args.seed))
        problems += outcome_problems(reps, store)

    metrics = {}
    if plain:
        e2e, samples = end_to_end(plain)
        print("%d untraced runs, %d batch samples; total_s per run: %s" % (
            len(plain), samples,
            " ".join("%.4f" % r["total_s"] for r in plain)))
        if args.trace and traced:
            layers = {k: statistics.median(r["layers"][k] for r in traced)
                      for k in traced[0]["layers"]}
            layers["obs.trace_overhead"] = (
                statistics.median(r["total_s"] for r in traced) /
                e2e["total_s"])
            layers["failed_frac"] = traced[0]["failed_frac"]
            layers["batch_samples"] = samples
            metrics = {k: layers[k] for k in PER_LAYER}
            table = layer_table(args.workload, args.seed, layers)
            with open(os.path.join(out_dir, "%s-seed%d-layers.md" %
                                   (args.workload, args.seed)), "w") as f:
                f.write(table + "\n")
            print(table)
            print("spans: %s (%d traced runs)" % (spans_path, len(traced)))
        elif not args.trace:
            metrics = e2e
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append("%s is not finite" % name)
        print("%-28s %16.6f %s" % (name, value, units[name]))
    for p in problems:
        print("perfbench: FAILED: " + p)
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
