#!/usr/bin/env python3
"""Chronos benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload <office_batch|daemon_hostile>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (perfbench/CMakeLists.txt: the repository's libraries
from src/ plus the benchmark program in perfbench/src/) into .bench_build/
as an optimized build, then runs one workload. Build output goes to stderr; the
benchmark's own output goes to stdout, whose last line is the JSON result.
The exit code is the benchmark's: 0 on success, 1 when a correctness gate
fails, 2 on bad usage or when the sources or the build are missing.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("office_batch", "daemon_hostile")
BUILD_DIR = ".bench_build"
TARGET = "chronos_perfbench"
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(root):
    """Configures (once) and builds the benchmark; True on success."""
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", TARGET,
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, check=False)
        except OSError as err:
            print("perfbench: cannot run cmake: %s" % err, file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        return fail("repository sources (src/) not found next to perfbench/")
    if not build(root):
        return fail("build failed")

    binary = os.path.join(root, BUILD_DIR, TARGET)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        return fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
