#!/usr/bin/env python3
"""Tests of the farm benchmark itself, at its tiny size (about a minute).

    python3 farmbench/tests/test_farmbench.py

- every workload prints every metric BENCHMARK.json names, with its unit,
  in both modes, and its farm calls match their pins;
- a corrupted pin drives error_rate to 1;
- compare.py refuses results with different machine fingerprints;
- run.py fails without printing a result when the sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SCRATCH = ROOT / ".bench_build" / "farmbench-tests"
WORKLOADS = ("hold", "churn", "relay", "tree_churn")


def run_bench(workload, trace, *extra):
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False, timeout=600)


class FarmBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), set(self.expected[trace]))
                    for name, unit in self.expected[trace].items():
                        self.assertEqual(metrics[name]["unit"], unit, name)
                        printed = [l for l in lines[:-1]
                                   if l.startswith(name + " = ")]
                        self.assertEqual(len(printed), 1, name)
                        self.assertTrue(printed[0].endswith(" " + unit), name)
                    if trace == 0:
                        for name in metrics:
                            self.assertGreater(metrics[name]["value"], 0, name)

    def test_corrupted_pin_drives_error_rate_to_one(self):
        pins = json.loads((BENCH_DIR / "pins.json").read_text())
        for variant in pins["tiny"]["hold"].values():
            for pin in variant.values():
                pin["digest"] = "0" * 16
        corrupted = SCRATCH / "corrupted-pins.json"
        corrupted.write_text(json.dumps(pins))
        proc = run_bench("hold", 1, "--pins", str(corrupted))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["error_rate"]["value"], 1.0)

    def test_compare_refuses_different_fingerprints(self):
        record = {"workload": "hold", "size": "tiny", "trace": 0,
                  "fingerprint": {"cpu_model": "a", "nproc": 4},
                  "code": {"git_sha": None},
                  "result": {"metrics": {"events_per_s": {"value": 1.0}}}}
        base = SCRATCH / "base.json"
        base.write_text(json.dumps(record))
        record["fingerprint"]["cpu_model"] = "b"
        change = SCRATCH / "change.json"
        change.write_text(json.dumps(record))
        compare = [sys.executable, str(BENCH_DIR / "compare.py")]
        same = subprocess.run([*compare, str(base), str(base)],
                              stdout=subprocess.PIPE, check=False)
        self.assertEqual(same.returncode, 0)
        differ = subprocess.run([*compare, str(base), str(change)],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, check=False)
        self.assertEqual(differ.returncode, 3)

    def test_fails_without_the_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "farmbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        proc = subprocess.run(
            [sys.executable, "farmbench/run.py", "--workload", "hold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, check=False, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        self.assertFalse((bare / ".bench_build").exists())


if __name__ == "__main__":
    unittest.main()
