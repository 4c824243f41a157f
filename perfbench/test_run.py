#!/usr/bin/env python3
"""Tests of the benchmark itself; run from the checkout root:

    python3 perfbench/test_run.py

* The C++ unit tests of the correctness gates (perfbench_test: the MaxSum
  upper bound against brute force, the audit gate on injected pairs).
* A seconds-long smoke run of every workload, untraced and traced: each
  result line carries exactly the metrics BENCHMARK.json names, with their
  units, and passes its correctness checks.
* Two traced runs of one seed report identical deterministic counters.
* Without the program's sources the benchmark fails fast and prints no
  result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SMOKE_SECONDS = "2"
# Counters that depend only on the seed (one workload each).
DETERMINISTIC = {
    "solve-greedy": ["index.linear.points_scanned", "algo.greedy.matches"],
    "solve-mcf": ["flow.augmenting_paths"],
    "serve": ["svc.batches", "svc.ckpt.writes", "dyn.mutations"],
}


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, proc, kind):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in self.spec[kind]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_gate_unit_tests(self):
        out = run.build_dir()
        run.build(out)
        build = subprocess.run(
            ["cmake", "--build", out, "--target", "perfbench_test"],
            capture_output=True, text=True)
        self.assertEqual(build.returncode, 0, build.stdout[-2000:])
        tests = subprocess.run([os.path.join(out, "perfbench_test")],
                               capture_output=True, text=True)
        self.assertEqual(tests.returncode, 0, tests.stdout[-2000:])

    def test_smoke_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_result(bench(workload, 1, 0),
                                           "end_to_end")
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_smoke_traced_and_deterministic(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.check_result(bench(workload, 2, 1), "per_layer")
                second = self.check_result(bench(workload, 2, 1), "per_layer")
                for name in DETERMINISTIC[workload]:
                    self.assertGreater(first["metrics"][name]["value"], 0,
                                       name)
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_fails_without_program_sources(self):
        os.makedirs(run.build_dir(), exist_ok=True)
        scratch = tempfile.mkdtemp(dir=run.build_dir())
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve",
                 "--seed", "1", "--seconds", SMOKE_SECONDS, "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=180,
                env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
