#!/usr/bin/env python3
"""Builds and runs the scenario benchmark from the repository root.

    python3 scenariobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the scalpel libraries and the benchmark (Release) into
.bench_build/scenariobench, runs the benchmark's logic tests, then runs one
measurement. The last line of standard output is the JSON result; build and
test output goes to standard error. --trace 1 runs the traced binary, which
reports the per-layer metrics and writes the spans as Chrome trace JSON to
.bench_build/traces/.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "scenariobench"
WORKLOADS = ("plan-cold", "online-churn", "metro-sharded", "distributed-ctrl")
TARGETS = ("scenario_bench", "scenario_bench_traced", "scenario_bench_test")


def step(cmd, timeout):
    """Runs a build or test command with its output on stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, check=False)
    if result.returncode != 0:
        sys.exit(f"run.py: {' '.join(map(str, cmd))} failed "
                 f"(exit {result.returncode})")


def build():
    if not (BUILD / "Makefile").exists():
        step(["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *TARGETS],
         timeout=800)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    build()
    step([str(BUILD / "scenario_bench_test")], timeout=60)

    cmd = [str(BUILD / ("scenario_bench_traced" if args.trace
                        else "scenario_bench")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    result = subprocess.run(cmd, timeout=args.seconds + 150, check=False)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
