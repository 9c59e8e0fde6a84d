#!/usr/bin/env python3
"""The benchmark's own tests: a tiny run of every workload.

Each workload runs for one second with --trace 0 and with --trace 1. The
tests check that the outputs verified (correct, nothing failed), that the
result names exactly the end-to-end or per-layer metrics BENCHMARK.json
lists, each with its unit, and that meta.json describes every workload
BENCHMARK.json lists and every per-layer metric.

    python3 perfbench/test_perfbench.py
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return json.load(f)


SPEC = load(os.path.join(ROOT, "BENCHMARK.json"))
META = load(os.path.join(HERE, "meta.json"))
WORKLOADS = sorted(META["workloads"])


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def check(self, trace, section):
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = run(workload, trace)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(res["correct"], True)
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual({k: m["unit"] for k, m in res["metrics"].items()}, units)
                for name, m in res["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]), name)
                    if trace == 0:
                        self.assertGreater(m["value"], 0, name)
                if trace == 1:
                    self.assertEqual(res["metrics"]["fail_ratio"]["value"], 0)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")


class Meta(unittest.TestCase):
    def test_meta_covers_benchmark(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))
        self.assertEqual(set(META["per_layer"]), {m["name"] for m in SPEC["per_layer"]})
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        for name, m in META["per_layer"].items():
            self.assertLessEqual(set(m["moves"]), end_to_end, name)
            self.assertLessEqual(set(m["on"]), set(WORKLOADS), name)


if __name__ == "__main__":
    unittest.main()
