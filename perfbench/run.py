#!/usr/bin/env python3
"""End-to-end benchmark of the ACTOR reproduction.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It builds the `perfbench` package
(release, into $CARGO_TARGET_DIR or .bench_build), then repeats cold reps
of the workload -- each a fresh `perfbench` process in a fresh scratch
directory -- until --seconds have passed, and reports medians over the
reps. With --trace 0 it prints every end-to-end metric; with --trace 1 it
alternates untraced and traced reps and prints every per-layer metric.
The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ["paper_fig8", "policy_sweep", "scenario_fleet", "daemon_sweep"]
DEFAULT_SEED = 2007
HELD_OUT_SEED = 4242
# Untraced reps per timed run, at least (a run overshoots --seconds rather
# than report fewer).
MIN_REPS = 2
# One rep must end well inside the 180 s a run may take.
REP_TIMEOUT_S = 150

# Unit of each end-to-end metric; each reports the median over the run's
# untraced reps.
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
    "sim_ed2_pct": "%",
}


def layer_unit(name):
    """The unit of a per-layer metric, from its name."""
    leaf = name.split(".")[1]
    if "_per_s" in leaf:
        return "1/s"
    if "_ms" in leaf:
        return "ms"
    if "_ns" in leaf:
        return "ns"
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_frac"):
        return "ratio"
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark; returns the binary path or exits 1."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=870).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"error: cargo build failed to run: {e}")
        built = False
    if not built:
        log("error: cannot build perfbench (run from a full checkout of the repository)")
        sys.exit(1)
    return target, os.path.join(target, "release", "perfbench")


def run_rep(binary, scratch_root, workload, seed, size, trace_file, tag):
    """One cold rep in a fresh scratch directory; returns its JSON record
    plus cpu_s (its CPU time and that of the children it reaped)."""
    scratch = os.path.join(scratch_root, f"{workload}-{seed}-{os.getpid()}-{tag}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--size", size]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.monotonic()
    try:
        # TMPDIR keeps the daemon's Unix socket inside the scratch directory.
        proc = subprocess.run(
            cmd,
            cwd=scratch,
            env=dict(os.environ, TMPDIR="."),
            stdout=subprocess.PIPE,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    record = json.loads(lines[-1])
    record["cpu_s"] = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    record["wall_s"] = time.monotonic() - started
    return record


median = statistics.median


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(reps):
    """Per-rep end-to-end values, keyed by metric name."""
    per_rep = {
        "setup_s": [r["setup_s"] for r in reps],
        "run_s": [r["run_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "cells_per_s": [r["cells"] / r["work_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "sim_ed2_pct": [r["sim_ed2_pct"] for r in reps],
    }
    assert per_rep.keys() == END_TO_END_UNITS.keys()
    return per_rep


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny: the benchmark's own tests")
    args = parser.parse_args()

    target, binary = build()
    scratch_root = os.path.join(target, "perfbench-runs")
    trace_dir = os.path.join(target, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")

    started = time.monotonic()
    deadline = started + args.seconds
    untraced, traced = [], []

    def next_is_traced():
        return args.trace == 1 and len(traced) < len(untraced)

    try:
        while True:
            want_traced = next_is_traced()
            reps = traced if want_traced else untraced
            reps.append(
                run_rep(
                    binary,
                    scratch_root,
                    args.workload,
                    args.seed,
                    args.size,
                    trace_file if want_traced else None,
                    len(untraced) + len(traced),
                )
            )
            enough = len(untraced) >= (1 if args.trace else MIN_REPS) and len(traced) >= args.trace
            upcoming = traced if next_is_traced() else untraced
            expected = median([r["wall_s"] for r in upcoming or untraced])
            if enough and time.monotonic() + expected > deadline:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"error: {e}")
        sys.exit(1)

    all_reps = untraced + traced
    digests = sorted({r["digest"] for r in all_reps})
    problems = [p for r in all_reps for p in r["problems"]]
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    correct = failed == 0 and len(digests) == 1
    if len(digests) != 1:
        problems.append(f"reps at one seed printed different digests: {digests}")

    print(f"workload {args.workload}  seed {args.seed}  reps {len(untraced)} untraced + {len(traced)} traced")
    print(f"digest {' '.join(digests)}  checks {attempted - failed}/{attempted} passed")
    for p in problems[:10]:
        print(f"  FAILED: {p}")

    metrics = {}
    e2e = end_to_end(untraced)
    for name, values in e2e.items():
        q1, q3 = quartiles(values)
        unit = END_TO_END_UNITS[name]
        print(
            f"{name:<16} {median(values):12.5g} {unit:<8} (median of {len(values)} reps;"
            f" q1 {q1:.5g}, q3 {q3:.5g}, min {min(values):.5g}, max {max(values):.5g})"
        )
        if args.trace == 0:
            metrics[name] = {"value": median(values), "unit": unit}
    for note in sorted(untraced[0]["notes"]):
        print(f"{note:<28} {median([r['notes'][note] for r in untraced]):10.4f} (timing-free)")

    if args.trace == 1:
        layers = {name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        run_u = median(e2e["run_s"])
        layers["trace.overhead_frac"] = (median([r["run_s"] for r in traced]) - run_u) / run_u
        for name in sorted(layers):
            unit = layer_unit(name)
            print(f"{name:<52} {layers[name]:14.6g} {unit}")
            metrics[name] = {"value": layers[name], "unit": unit}
        print(f"spans of the last traced rep: {os.path.relpath(trace_file, ROOT)}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
