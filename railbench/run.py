#!/usr/bin/env python3
"""Builds the Railgun benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 railbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The engine and the benchmark program are compiled into .bench_build/railbench
(the first run builds; later runs only check that the build is current). The
run's data directory is .bench_run/<workload>, wiped before and removed after.
The last line of standard output is the run's JSON result; see README.md.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "railbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
# One run: set-up three times, warm-up, the measured phase and (traced)
# the layer replay. Well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "client.h")):
        sys.exit("railbench: engine sources (src/) not found next to railbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "railbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("railbench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--rate", type=float,
                        help="open-loop rate override (capacity sweeps)")
    args = parser.parse_args()

    build()
    command = [os.path.join(BUILD_DIR, "railbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--dir", os.path.join(RUN_DIR, args.workload)]
    if args.rate:
        command += ["--rate", str(args.rate)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("railbench: run timed out")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        sys.exit("railbench: run failed (exit code %d)" % done.returncode)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
