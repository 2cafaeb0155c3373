#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from anywhere; builds through run.py first. Checks that
  * the same seed gives the same inputs, and another seed other inputs
    (the fingerprint every run prints);
  * every metric a run prints is declared in BENCHMARK.json with that unit,
    and an untraced run prints every end-to-end metric;
  * vc.seq_tree_nodes, an exact count, repeats across runs of one seed.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

BINARY = os.path.join(run.BUILD, "perfbench")


def fingerprint(workload, seed):
    out = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--fingerprint-only"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return re.search(r"hash=([0-9a-f]+)", out).group(1)


def measured(workload, seed, trace, seconds=2):
    """The program's own result line: only the metrics it measured."""
    done = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    return done.returncode, json.loads(done.stdout.strip().split("\n")[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.end_to_end, cls.per_layer = run.load_contract()

    def test_same_seed_gives_same_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = fingerprint(workload, 7)
                self.assertEqual(first, fingerprint(workload, 7))
                self.assertNotEqual(first, fingerprint(workload, 8))

    def test_printed_metrics_are_declared_with_their_units(self):
        for workload in run.WORKLOADS:
            for trace, declared in ((0, self.end_to_end), (1, self.per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    code, result = measured(workload, 3, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    for name, metric in result["metrics"].items():
                        self.assertIn(name, declared)
                        self.assertEqual(metric["unit"], declared[name])
                    if trace == 0:
                        self.assertEqual(set(result["metrics"]), set(declared))

    def test_sequential_tree_size_repeats_for_a_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                counts = [measured(workload, 5, 1)[1]["metrics"]
                          ["vc.seq_tree_nodes"]["value"] for _ in range(2)]
                self.assertGreater(counts[0], 0)
                self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
