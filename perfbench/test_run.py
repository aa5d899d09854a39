#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_run.py

Runs every workload at tiny size, timed and traced, and checks the result
line against BENCHMARK.json: every printed metric is declared and every
declared metric is printed, with its declared unit and a valid name. Also
checks that the benchmark refuses to run outside a full checkout. The
Rust unit tests run with `cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload]
    cmd += ["--seed", "5", "--seconds", "1", "--size", "tiny", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


class BenchmarkDeclaration(unittest.TestCase):
    def test_workloads_match_the_declaration(self):
        declared = [w["name"] for w in load_benchmark()["workloads"]]
        self.assertEqual(declared, run.WORKLOADS)

    def test_every_workload_prints_exactly_the_declared_metrics(self):
        bench = load_benchmark()
        for workload in run.WORKLOADS:
            for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout[-2000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in bench[key]}
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    for name, metric in result["metrics"].items():
                        self.assertRegex(name, NAME)
                        value = metric["value"]
                        self.assertIsInstance(value, (int, float), name)
                        self.assertTrue(math.isfinite(value), name)
                        if trace == 0:
                            self.assertNotEqual(value, 0, name)

    def test_refuses_to_run_outside_a_full_checkout(self):
        alone = os.path.join(ROOT, ".bench_build", "perfbench-alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(HERE, os.path.join(alone, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(alone, ".bench_build"))
            proc = run_bench("paper_fig8", 0, cwd=alone, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
