#!/usr/bin/env python3
"""End-to-end Why-Not query benchmark: build, prepare inputs, serve, report.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload interactive-medium --seed 1 \
        --seconds 35 --trace 0

Steps, each in its own process:
  1. build  the e2e_bench program and the EMiGRe libraries from source
            (CMake, Release) into $CARGO_TARGET_DIR or .bench_build/;
  2. prepare the seeded inputs (dataset -> CSR snapshot, question list),
            cached by (band, seed) under the build directory;
  3. serve  the questions and check every answer (see README.md).

The serving process's standard output is passed through; its last line is
the result object {"correct", "attempted", "failed", "metrics"}. Build and
preparation logs go to standard error. Exits non-zero when any step fails
or any answer check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("interactive-medium", "search-small", "recommend-medium")


def run(cmd, **kwargs):
    """Runs `cmd` to completion; build/prepare output goes to stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False, **kwargs).returncode


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if run(["cmake", "-S", HERE, "-B", cmake_dir,
            "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", cmake_dir, "--target", "e2e_bench",
            "-j", jobs]) != 0:
        return None
    return os.path.join(cmake_dir, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    data_dir = os.path.join(build_dir, "data")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", data_dir]
    if run([binary, "prepare"] + common) != 0:
        print("e2ebench: input preparation failed", file=sys.stderr)
        return 1

    sys.stdout.flush()
    serve = subprocess.run(
        [binary, "serve"] + common +
        ["--seconds", repr(args.seconds), "--trace", str(args.trace)],
        check=False)
    return serve.returncode


if __name__ == "__main__":
    sys.exit(main())
