#!/usr/bin/env python3
"""Smoke test of the DReAMSim benchmark.

Runs every workload of BENCHMARK.json at the reduced size, untraced on the
default seed and traced on the held-out seed, through run.py exactly as the
benchmark is invoked, and asserts that every named metric is present with
its unit and a finite value, and that every output check passes.

    python3 perfbench/tests/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 42
HELD_OUT_SEED = 2012


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "reduced"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check(self, workload, seed, trace):
        declared = self.spec["per_layer" if trace else "end_to_end"]
        result = run_bench(workload, seed, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_end_to_end_default_seed(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], DEFAULT_SEED, trace=0)

    def test_end_to_end_held_out_seed(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], HELD_OUT_SEED, trace=0)

    def test_traced_run(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], HELD_OUT_SEED, trace=1)


if __name__ == "__main__":
    unittest.main()
