#!/usr/bin/env python3
"""TPC-H serving-path benchmark: builds tqp_perfbench from source and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload power_sf0.1 --seed 1 --seconds 10 --trace 0

Workloads and metrics are listed in BENCHMARK.json. tqp_perfbench is built with
CMake into .bench_build/perfbench (RelWithDebInfo), spill files go to
.bench_build/tmp, and each run writes its full report (configuration,
per-query rows) to .bench_build/reports/ and, with --trace 1, its Chrome
trace to .bench_build/traces/. The last line of stdout is the result JSON.

Extra flags: --smoke (every workload at SF 0.001 for one stream) and
--report PATH (where to write the report).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(out):
    """Configures and builds tqp_perfbench; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no tqp sources next to perfbench/ (CMakeLists.txt and src/ are missing)")
    cmake_dir = os.path.join(out, "perfbench")
    log_path = os.path.join(out, "build.log")
    os.makedirs(cmake_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", cmake_dir, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; full log in " + os.path.relpath(log_path, ROOT))
    return os.path.join(cmake_dir, "tqp_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--report")
    args = parser.parse_args()

    out = os.path.join(ROOT, ".bench_build")
    binary = build(out)
    tmp = os.path.join(out, "tmp")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    for sub in ("tmp", "reports", "traces"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--report", args.report or os.path.join(out, "reports", tag + ".json")]
    if args.trace:
        cmd += ["--chrome-trace", os.path.join(out, "traces", tag + ".json")]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, TMPDIR=tmp)  # spill files stay inside the checkout
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"tqp_perfbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("tqp_perfbench printed a malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
