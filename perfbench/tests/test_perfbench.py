"""Tests of the benchmark itself, on its short smoke mode.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of the repository; the first test builds the driver.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = list(json.loads(
    (ROOT / "perfbench" / "workloads.json").read_text())["workloads"])
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, prefix=()):
    return subprocess.run([*prefix, sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def fingerprint_of(done):
    for line in done.stdout.splitlines():
        if line.startswith("== ") and "fingerprint=" in line:
            return line.split("fingerprint=")[1].split()[0]
    raise AssertionError("no fingerprint in report")


class SmokeTest(unittest.TestCase):
    def check_run(self, done, spec_metrics):
        self.assertEqual(done.returncode, 0, done.stderr + done.stdout)
        result = result_of(done)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in spec_metrics}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        report = done.stdout
        for name, unit in expected.items():
            # Each metric prints by name with its unit and sample count.
            line = next((l for l in report.splitlines()
                         if l.split()[:1] == [name]), None)
            self.assertIsNotNone(line, f"{name} not in the report")
            self.assertIn(f" {unit} ", line + " ")
            self.assertIn("n=", line)
        return result

    def test_end_to_end_metrics_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run("--workload", workload, "--smoke", "--trace", "0")
                result = self.check_run(done, SPEC["end_to_end"])
                for name in ("open_p99_ms", "failed_ratio"):
                    self.assertIn(name, done.stdout)
                for name, metric in result["metrics"].items():
                    # Smoke ladder rungs are too short to pass reliably.
                    if name != "sustained_rps":
                        self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run("--workload", workload, "--smoke", "--trace", "1")
                self.check_run(done, SPEC["per_layer"])
                # Every per-layer metric names what it should move.
                for m in SPEC["per_layer"]:
                    line = next(l for l in done.stdout.splitlines()
                                if l.split()[:1] == [m["name"]])
                    self.assertIn("->", line)

    def test_seed_changes_instances_not_metric_set(self):
        for workload in ("engine_exact", "front_repeat"):
            with self.subTest(workload=workload):
                a = run("--workload", workload, "--smoke", "--seed", "1")
                b = run("--workload", workload, "--smoke", "--seed", "2")
                again = run("--workload", workload, "--smoke", "--seed", "1")
                self.assertNotEqual(fingerprint_of(a), fingerprint_of(b))
                self.assertEqual(fingerprint_of(a), fingerprint_of(again))
                self.assertEqual(set(result_of(a)["metrics"]),
                                 set(result_of(b)["metrics"]))

    def test_wrong_answers_fail_the_run(self):
        done = run("--workload", "front_repeat", "--smoke",
                   "--corrupt-every", "50")
        self.assertNotEqual(done.returncode, 0)
        result = result_of(done)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("WRONG:", done.stdout)

    @unittest.skipUnless(shutil.which("taskset"), "needs taskset")
    def test_budget_above_nproc_is_refused(self):
        done = run("--workload", "front_repeat", "--smoke",
                   prefix=("taskset", "-c", "0"))
        self.assertNotEqual(done.returncode, 0)
        self.assertIn("refusing to run", done.stderr)
        self.assertEqual(done.stdout.strip(), "")

    def test_unknown_workload_is_refused(self):
        done = run("--workload", "no_such_workload", "--smoke")
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
