#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --regen-goldens

The first call configures and builds perfbench/ (which pulls in ../src) in
.bench_build/; later calls rebuild incrementally. Build output goes to
standard error. The last line of standard output is the benchmark's result
object. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("table2", "cold-start", "hot-launch")


def build(targets, env):
    """Configures (once) and builds the given targets; exits on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's self-test")
    p.add_argument("--regen-goldens", action="store_true",
                   help="recompute perfbench/goldens.txt with the interpreter")
    a = p.parse_args()

    # The benchmark measures the JIT's default configuration: no PROTEUS_*
    # variable of the caller's environment may change it. Temporary files
    # of the compiler and the benchmark stay inside the build directory.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PROTEUS_")}
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)

    if a.selftest:
        build(["perfbench_selftest"], env)
        cmd = [os.path.join(BUILD, "perfbench_selftest"), HERE,
               os.path.join(BUILD, "selftest-work")]
        return subprocess.run(cmd, env=env).returncode
    if a.regen_goldens:
        build(["proteus_perfbench"], env)
        cmd = [os.path.join(BUILD, "proteus_perfbench"), "--regen-goldens",
               "--root", HERE]
        return subprocess.run(cmd, env=env).returncode
    if None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")

    build(["proteus_perfbench"], env)
    cmd = [os.path.join(BUILD, "proteus_perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--root", HERE, "--work", os.path.join(BUILD, "work")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
