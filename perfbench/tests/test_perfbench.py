"""Tests of the benchmark itself (not of the decoder library).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first test builds ldpc_perfbench if needed (about half a minute); the
rest take a few seconds per short run.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR") or
                     os.path.join(ROOT, ".bench_build"), "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, cwd=ROOT, seconds="1"):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", seconds,
           "--trace", str(trace)] + list(extra)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        spec = load_spec()
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = {m["name"]: m["unit"] for m in spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    for name, unit in declared.items():
                        printed = [l for l in lines
                                   if l.startswith("metric %s = " % name)]
                        self.assertEqual(len(printed), 1, name)
                        self.assertTrue(printed[0].endswith(" " + unit),
                                        printed[0])
                    self.assertTrue(any(l.startswith("fingerprint {")
                                        for l in lines))
                    if trace:
                        self.assertTrue(os.path.isfile(os.path.join(
                            BUILD, "traces", "%s-seed7.json" % workload)))

    def test_changed_fingerprint_is_reported_as_not_comparable(self):
        os.makedirs(BUILD, exist_ok=True)
        with open(os.path.join(BUILD, "last_fingerprint.json"), "w") as f:
            json.dump({"cpu_model": "some other CPU"}, f)
        proc = run("batch_q8", 0)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        self.assertIn("not comparable", proc.stdout)
        proc = run("batch_q8", 0)
        self.assertNotIn("not comparable", proc.stdout)


class NegativeTest(unittest.TestCase):
    def test_corrupted_expected_result_fails_the_run(self):
        for workload in ("batch_q8", "batch_fa4", "service_mix"):
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--corrupt-expected")
                self.assertNotEqual(proc.returncode, 0)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertIn("check failed", proc.stderr)

    def test_refuses_to_run_without_the_sources(self):
        # Only BENCHMARK.json and perfbench/: nothing to build.
        alone = os.path.join(BUILD, "selftest-alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(PERFBENCH, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("batch_q8", 0, cwd=alone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(any(l.startswith("{")
                                 for l in proc.stdout.splitlines()))
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
