#!/usr/bin/env python3
"""Compares committed perfbench runs, workload by workload.

Usage
-----
    python3 tools/bench_diff.py BENCH_22.json
        the file's `parent_workloads` (base) against its `workloads` (change)
    python3 tools/bench_diff.py BENCH_21.json BENCH_22.json
        the first file's `workloads` (base) against the second's

Runs pair by seed; only seeds present on both sides count. For every
workload and every end-to-end metric of BENCHMARK.json, the tool prints each
side's median and quartiles, the pairs the new side won (ties count for
neither) and a verdict:

    gain        the new side won at least 9/10 of the pairs, and its median
                is better than the base median by more than the base IQR
    regression  the new median is worse than the base median by more than
                the metric's `bound` (a fraction of the base median)
    unresolved  neither, and one side's IQR is wider than the bound, unless
                every new run is better than every base run
    flat        otherwise

The bounds come from the repo's BENCHMARK.json, which is read, never written.
"""

import argparse
import json
import os
import statistics
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def runs_by_seed(workload):
    """{seed: {metric: value}} for one workload entry of a BENCH file."""
    out = {}
    for run in workload.get("runs", []):
        metrics = run["result"]["metrics"]
        out[run["seed"]] = {name: m["value"] for name, m in metrics.items()}
    return out


def verdict(base, new, better, bound):
    """Classifies paired runs `base[i]` / `new[i]` of one metric."""
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, n in zip(base, new) if sign * (b - n) > 0)
    gap = sign * (bmed - nmed)  # > 0 when the new median is better
    if wins >= GAIN_WIN_SHARE * len(base) and gap > b3 - b1:
        return "gain", wins
    if -gap > bound * abs(bmed):
        return "regression", wins
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0,
                 (n3 - n1) / abs(nmed) if nmed else 0.0)
    all_better = all(sign * (b - n) > 0 for b in base for n in new)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "flat", wins


def diff(base_workloads, new_workloads, end_to_end):
    """One row per (workload, metric) present on both sides."""
    rows = []
    for name, new_entry in new_workloads.items():
        if name not in base_workloads:
            continue
        base_runs = runs_by_seed(base_workloads[name])
        new_runs = runs_by_seed(new_entry)
        seeds = sorted(set(base_runs) & set(new_runs))
        for metric in end_to_end:
            m = metric["name"]
            pairs = [(base_runs[s][m], new_runs[s][m]) for s in seeds
                     if m in base_runs[s] and m in new_runs[s]]
            if not pairs:
                continue
            base = [p[0] for p in pairs]
            new = [p[1] for p in pairs]
            result, wins = verdict(base, new, metric["better"], metric["bound"])
            rows.append({
                "workload": name, "metric": m, "unit": metric["unit"],
                "pairs": len(pairs), "wins": wins, "verdict": result,
                "base": quartiles(base), "new": quartiles(new),
            })
    return rows


def load_sides(paths):
    """(base_workloads, new_workloads) for one or two BENCH files."""
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.load(f))
    if len(docs) == 1:
        if "parent_workloads" not in docs[0]:
            raise ValueError(paths[0] + " has no parent_workloads to compare")
        return docs[0]["parent_workloads"], docs[0]["workloads"]
    return docs[0]["workloads"], docs[1]["workloads"]


def format_rows(rows):
    lines = ["%-20s %-17s %-30s %-30s %6s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "won", "verdict")]
    for r in rows:
        b1, bmed, b3 = r["base"]
        n1, nmed, n3 = r["new"]
        change = (nmed - bmed) / bmed * 100 if bmed else 0.0
        lines.append("%-20s %-17s %-30s %-30s %+5.1f%% %6s  %s" % (
            r["workload"], r["metric"],
            "%.4g [%.4g, %.4g] %s" % (bmed, b1, b3, r["unit"]),
            "%.4g [%.4g, %.4g] %s" % (nmed, n1, n3, r["unit"]),
            change, "%d/%d" % (r["wins"], r["pairs"]), r["verdict"]))
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("bench", nargs="+", help="one or two BENCH_*.json files")
    args = parser.parse_args(argv)
    if len(args.bench) > 2:
        parser.error("give one or two BENCH files")
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    try:
        base, new = load_sides(args.bench)
    except ValueError as e:
        parser.error(str(e))
    print(format_rows(diff(base, new, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
