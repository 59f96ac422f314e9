#!/usr/bin/env python3
"""Wall-clock serving benchmark for mxplus.

Builds the library and the benchmark driver from the checkout's own
sources (perfbench/CMakeLists.txt, build directory perfbench/.build),
then runs one workload and passes its result through. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload chat-mxfp4p --seed 1 \
        --seconds 50 --trace 0

--trace 1 runs the same inputs traced: it prints the per-layer
metrics instead of the end-to-end ones, runs the layer replays, and
writes the span file perfbench/out/trace_<workload>_<seed>.json.
See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("chat-mxfp4p", "chat-bf16")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(BENCH_DIR, ".build")
OUT_DIR = os.path.join(BENCH_DIR, "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve",
                                       "serving_engine.h")):
        sys.exit("perfbench: no mxplus sources under %s" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT_DIR, "trace_%s_%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    out = proc.stdout.decode()
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: driver exited with %d" % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
