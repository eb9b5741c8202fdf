#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does) and checks that:
  - a tiny run of every workload passes its checks and emits exactly
    the metrics BENCHMARK.json names, untraced and traced;
  - a wrong golden hash or a forced CSP-oracle violation fails every
    run, is counted in error_rate, and makes run.py exit non-zero;
  - compare.py gives a verdict only when the quartile ranges do not
    overlap.
"""

import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def perf_binary(workload, trace, *flags):
    """Run the built naspipe_perf on tiny inputs; return its record."""
    proc = subprocess.run(
        [str(run.BINARY), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=run.RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_py(workload, record, *flags):
    """Run perfbench/run.py on tiny inputs; return (exit code, record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", "0", "--tiny",
         "--record", str(record), *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=run.RUN_TIMEOUT_S + 30)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads(record.read_text().strip().splitlines()[-1])
    return proc.returncode, result, full


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        run.build()

    def test_workload_names_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))

    def test_tiny_runs_emit_every_named_metric(self):
        names = {0: {m["name"] for m in SPEC["end_to_end"]},
                 1: {m["name"] for m in SPEC["per_layer"]}}
        units = {m["name"]: m["unit"]
                 for key in ("end_to_end", "per_layer") for m in SPEC[key]}
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    out = perf_binary(workload, trace)
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0, out["failures"])
                    self.assertEqual(set(out["metrics"]), names[trace])
                    for name, metric in out["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])
                    if trace == 0:
                        for name, metric in out["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def check_injected_failure(self, workload, flag):
        with tempfile.TemporaryDirectory() as tmp:
            code, result, full = run_py(workload,
                                        Path(tmp) / "runs.jsonl", flag)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(full["error_rate"], 1.0)
        self.assertTrue(full["failures"])
        return full["failures"]

    def test_wrong_golden_hash_is_a_failure(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                failures = self.check_injected_failure(
                    workload, "--inject-wrong-golden")
                self.assertIn("weight hash", failures[0])

    def test_oracle_violation_is_a_failure(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                failures = self.check_injected_failure(
                    workload, "--inject-oracle-violation")
                self.assertIn("CSP oracle", failures[0])

    def test_clean_tiny_run_is_correct(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, result, full = run_py("solo-w1", Path(tmp) / "r.jsonl")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(full["error_rate"], 0.0)
        for key in ("nproc", "cpu_model", "compiler", "build_type",
                    "cxx_flags", "git_commit", "source_sha256"):
            self.assertIn(key, full["host"])

    def test_compare_verdicts(self):
        base = [1.0, 1.1, 0.9, 1.05, 0.95]
        slower = [2.0, 2.1, 1.9, 2.05, 1.95]
        self.assertEqual(compare.verdict(base, slower, "lower"), "worse")
        self.assertEqual(compare.verdict(base, slower, "higher"),
                         "better")
        self.assertEqual(compare.verdict(base, [1.02, 0.97, 1.08],
                                         "lower"), "overlap")
        self.assertEqual(compare.verdict(base, [5.0, 5.1], "lower"),
                         "too few runs")
        table = io.StringIO()
        worse = compare.compare({("w", 0): {"run_s": base}},
                                {("w", 0): {"run_s": slower}},
                                {"run_s": "lower"}, out=table)
        self.assertEqual(worse, 1)
        self.assertIn("worse", table.getvalue())


if __name__ == "__main__":
    unittest.main()
