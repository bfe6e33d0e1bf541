#!/usr/bin/env python3
"""Builds the planner benchmark from source and runs one workload.

Usage, from the repository root:

    python3 planbench/run.py --workload search_gpt3|search_deepnet|serve_mix \
        --seed N --seconds S --trace 0|1

The benchmark is a CMake package of its own (planbench/CMakeLists.txt)
compiled against the library sources in src/. It is built into
$CARGO_TARGET_DIR/planbench (default .bench_build/planbench, relative to the
repository root); later runs rebuild only what changed. The last line of
standard output is the run's JSON result. Build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_SECONDS = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "planbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    build = ["cmake", "--build", build_dir, "-j", jobs]
    for step in (configure, build):
        if subprocess.run(step, cwd=root, stdout=sys.stderr).returncode != 0:
            print("planbench: build failed", file=sys.stderr)
            return 1

    command = [os.path.join(build_dir, "planbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(
            build_dir, "spans_%s_%d.jsonl" % (args.workload, args.seed))]
    try:
        return subprocess.run(command, cwd=root,
                              timeout=RUN_TIMEOUT_SECONDS).returncode
    except subprocess.TimeoutExpired:
        print("planbench: run exceeded %d s" % RUN_TIMEOUT_SECONDS,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
