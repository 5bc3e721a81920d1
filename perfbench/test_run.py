#!/usr/bin/env python3
"""The benchmark's own test: each workload once at a tenth of its size.

    python3 perfbench/test_run.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
untraced and traced, and that the correctness gate fails a placement in which
one cell was moved onto another.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def bench_run(workload, trace, *extra):
    p = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", "0.1", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if p.returncode != 0:
        raise AssertionError("run.py exit %d:\n%s" % (p.returncode, p.stderr))
    return json.loads(p.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        emitted = result["metrics"]
        self.assertEqual(sorted(emitted), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(emitted[m["name"]]["unit"], m["unit"], m["name"])
            value = emitted[m["name"]]["value"]
            self.assertIsInstance(value, (int, float), m["name"])
            self.assertTrue(math.isfinite(value), m["name"])

    def test_every_metric_is_emitted_with_its_unit(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(bench_run(w["name"], 0), BENCH["end_to_end"])
                self.check_metrics(bench_run(w["name"], 1), BENCH["per_layer"])

    def test_gate_fails_a_cell_moved_onto_another(self):
        result = bench_run("stdcell_flat", 0, "--overlap-cell")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
