#!/usr/bin/env python3
"""Builds and runs one workload of the GeoAlign end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library is compiled from ../src together with the benchmark program
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build when
that is unset. The program's standard output is passed through; its last
line is the JSON result. Run reports and Chrome traces land in
<build dir>/reports. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("crosswalk_oneshot", "crosswalk_cached", "portal_us", "geo_build")
PROGRAM_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_or_fail(command, what):
    # Tool output goes to stderr: stdout carries only the benchmark's report.
    if subprocess.run(command, stdout=sys.stderr, check=False).returncode != 0:
        fail(f"{what} failed")


def build(root, build_dir):
    """Configures (once) and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found; run from the "
             "repository root")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_or_fail(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_or_fail(["cmake", "--build", build_dir, "--target", "geoalign_perfbench",
                 "-j", jobs], "build")
    return os.path.join(build_dir, "geoalign_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input scale; below 1 only for the self-test")
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    program = build(root, build_dir)
    reports = os.path.join(build_dir, "reports")
    os.makedirs(reports, exist_ok=True)

    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scale", str(args.scale), "--out-dir", reports]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=PROGRAM_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {PROGRAM_TIMEOUT_S} s", 3)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("benchmark printed no result line", 1)
    if run.returncode != 0 or not result["correct"]:
        fail(f"output checks failed (exit {run.returncode})", 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
