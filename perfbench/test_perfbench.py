#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload at SF 0.001 for one stream (run.py --smoke), with tracing
off and on, and checks that:
  * every metric BENCHMARK.json names is emitted with its unit, and no other;
  * no query fails (failed_frac is 0) and every result matches the oracle;
  * two runs with one seed report identical plan and program node counts
    and plan-cache hit ratio, and both spill under a budget (spilled bytes
    are not compared: under the default parallel executor they depend on
    the schedule and differ by a few percent between runs);
  * another seed generates other data;
  * the benchmark fails, without a result, when the sources are missing.

Usage, from the root of a checkout:  python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
REPORTS = os.path.join(ROOT, ".bench_build", "smoke")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DETERMINISTIC = ["plan.nodes", "compile.program_nodes", "session.plan_cache_hit_ratio"]


def run(workload, seed, trace):
    """Returns (result, report) of one smoke run."""
    os.makedirs(REPORTS, exist_ok=True)
    report = os.path.join(REPORTS, f"{workload}-{seed}-{trace}.json")
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", "--report", report],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(report) as f:
        return result, json.load(f)


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        expected = {m["name"]: m["unit"] for m in specs}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(emitted, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def check_ok(self, result, report):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(report["failed_frac"], 0)

    def test_workloads(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, report = run(w, 1, 0)
                self.check_ok(result, report)
                self.check_metrics(result, BENCH["end_to_end"])

                traced, first = run(w, 1, 1)
                self.check_ok(traced, first)
                self.check_metrics(traced, BENCH["per_layer"])

                again, second = run(w, 1, 1)
                for key in DETERMINISTIC:
                    self.assertEqual(again["metrics"][key]["value"],
                                     traced["metrics"][key]["value"], key)
                self.assertEqual(first["data_fingerprint"], second["data_fingerprint"])
                if "budget" in w:
                    for r in (traced, again):
                        self.assertGreater(r["metrics"]["tensor.spilled_mib"]["value"], 0)

                _, other = run(w, 2, 0)
                self.assertNotEqual(other["data_fingerprint"], first["data_fingerprint"])

    def test_fails_without_sources(self):
        stripped = os.path.join(ROOT, ".bench_build", "stripped")
        shutil.rmtree(stripped, ignore_errors=True)
        os.makedirs(stripped)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(stripped, "perfbench"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=stripped, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=180)
        shutil.rmtree(stripped, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
