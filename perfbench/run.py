#!/usr/bin/env python3
"""Builds the host benchmark from source and runs it (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build goes to .bench_build/perfbench under the repository root, and its
output to stderr. The benchmark's own stdout, whose last line is the JSON
result, passes through unchanged. Exits non-zero if the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = str(min(os.cpu_count() or 1, 4))


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", JOBS])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--self-test"]:
        return subprocess.run([build("perfbench_selftest")]).returncode
    return subprocess.run([build("perfbench")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
