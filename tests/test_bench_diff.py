#!/usr/bin/env python3
"""Tests for tools/bench_diff.py: the committed BENCH_21.json must read as the
gain it claimed, and each verdict must fire on runs built to produce it.

Run directly (`python3 tests/test_bench_diff.py`) or through ctest (the
`bench_diff_selftest` test).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO_ROOT, "tools", "bench_diff.py")
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import bench_diff  # noqa: E402

CPU = {"name": "cpu_ms_per_query", "unit": "ms", "better": "lower", "bound": 0.24}


def workload(values_by_seed):
    return {"runs": [{"seed": s, "result": {"metrics": {
        "cpu_ms_per_query": {"value": v, "unit": "ms"}}}}
        for s, v in values_by_seed.items()]}


def one_verdict(base, new):
    rows = bench_diff.diff({"w": workload(base)}, {"w": workload(new)}, [CPU])
    assert len(rows) == 1
    return rows[0]


class BenchDiffTest(unittest.TestCase):
    def test_bench21_budget_cpu_is_a_gain(self):
        base, new = bench_diff.load_sides([os.path.join(REPO_ROOT, "BENCH_21.json")])
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
            end_to_end = json.load(f)["end_to_end"]
        rows = bench_diff.diff(base, new, end_to_end)
        row = [r for r in rows if r["workload"] == "budget_sf0.1_24mib"
               and r["metric"] == "cpu_ms_per_query"][0]
        self.assertEqual(row["verdict"], "gain")
        self.assertEqual(row["pairs"], 10)
        self.assertGreaterEqual(row["wins"], 9)

    def test_verdicts(self):
        seeds = range(1, 11)
        steady = {s: 100.0 + s % 3 for s in seeds}
        self.assertEqual(one_verdict(steady, {s: v * 0.8 for s, v in steady.items()})
                         ["verdict"], "gain")
        self.assertEqual(one_verdict(steady, {s: v * 1.3 for s, v in steady.items()})
                         ["verdict"], "regression")
        self.assertEqual(one_verdict(steady, {s: v * 1.01 for s, v in steady.items()})
                         ["verdict"], "flat")
        noisy = {s: 100.0 * (1 + 0.5 * (s % 4)) for s in seeds}
        self.assertEqual(one_verdict(noisy, dict(noisy))["verdict"], "unresolved")

    def test_ties_and_unpaired_seeds_do_not_count(self):
        row = one_verdict({1: 10.0, 2: 10.0, 3: 10.0}, {1: 10.0, 2: 9.0, 4: 1.0})
        self.assertEqual(row["pairs"], 2)
        self.assertEqual(row["wins"], 1)

    def test_cli_compares_two_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, scale in (("a.json", 1.0), ("b.json", 0.5)):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump({"workloads": {"w": workload(
                        {s: scale * (100 + s) for s in range(1, 11)})}}, f)
                paths.append(path)
            proc = subprocess.run([sys.executable, TOOL, *paths],
                                  stdout=subprocess.PIPE, text=True, check=True)
        self.assertIn("cpu_ms_per_query", proc.stdout)
        self.assertIn("10/10  gain", proc.stdout)


if __name__ == "__main__":
    unittest.main()
