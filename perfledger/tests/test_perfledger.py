#!/usr/bin/env python3
"""Self-tests of the perf ledger benchmark.

    python3 perfledger/tests/test_perfledger.py

Builds the benchmark the way run.py does, runs the C++ self-tests of the
percentile helper and the output oracles, and checks the command-line
contract: an unknown workload is rejected without a result, and short
untraced and traced runs of every workload print exactly the metric names
and units BENCHMARK.json lists.
"""
import json
import os
import subprocess
import sys
import unittest

PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PACKAGE)
sys.path.insert(0, PACKAGE)

import run  # noqa: E402  (the package's build-and-run entry point)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    return subprocess.run([sys.executable, os.path.join(PACKAGE, "run.py")] + list(args),
                          capture_output=True, text=True, timeout=180)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfLedgerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build()

    def test_selftest_binary(self):
        proc = subprocess.run([os.path.join(self.build_dir, "perfledger_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_unknown_workload_is_rejected(self):
        proc = bench("--workload", "no_such_workload", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("unknown workload", proc.stderr)

    def test_bad_arguments_are_rejected(self):
        for args in (["--seconds", "0"], ["--trace", "2"], ["--seed", "-1"]):
            proc = bench("--workload", WORKLOADS[0], *args)
            self.assertNotEqual(proc.returncode, 0, args)
            self.assertEqual(proc.stdout, "", args)

    def check_run(self, trace, spec_key):
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = result(proc)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"], proc.stdout)
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                got = {name: m["unit"] for name, m in out["metrics"].items()}
                self.assertEqual(got, expected)
                for name, m in out["metrics"].items():
                    self.assertEqual(set(m), {"value", "unit"}, name)
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check_run("0", "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check_run("1", "per_layer")


if __name__ == "__main__":
    unittest.main()
