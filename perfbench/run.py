#!/usr/bin/env python3
"""Build the perfbench harness from this checkout's sources and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-tcp --seed 1 --seconds 10 --trace 0

The first run configures and builds into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only re-check the build.
Build output goes to stderr so the last stdout line stays the JSON result
the harness prints.  The exit code is the harness's, or 1 when the build
fails or the run overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper-tcp", "bulk-inproc", "zipf-gateway")
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target_root), "perfbench")
    if not build(source_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    child = subprocess.Popen(command)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
