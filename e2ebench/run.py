#!/usr/bin/env python3
"""End-to-end benchmark of the evidential engine: one command per run.

    python3 e2ebench/run.py --workload lookup|analytic|integrate \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout. The script builds the engine and
the benchmark from source into .bench_build/, generates the workload's
inputs from the seed into .bench_data/<workload>/ (reused when the seed
and binary are unchanged), then measures. Its last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. Build output goes to stderr. Any failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
DATA_DIR = os.path.join(ROOT, ".bench_data")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
WORKLOADS = ("lookup", "analytic", "integrate")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no engine sources at " + ROOT + " (CMakeLists.txt, src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        step = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr, timeout=300).returncode:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, timeout=850).returncode:
        fail("build failed")


def run_binary(args, timeout):
    """Runs the benchmark binary; returns its stdout, or exits on failure."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail(" ".join(args[:3]) + " timed out")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(" ".join(args[:3]) + " exited with " + str(done.returncode))
    return done.stdout


def prepare_inputs(workload, seed, tiny):
    """Generates the workload's inputs unless the same seed's are there."""
    data = os.path.join(DATA_DIR, workload + ("-tiny" if tiny else ""))
    stamp = "%d %d %d\n" % (seed, tiny, os.stat(BINARY).st_mtime_ns)
    stamp_path = os.path.join(data, "inputs.txt")
    if os.path.isfile(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return data
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    args = ["gen", "--workload", workload, "--seed", str(seed), "--dir", data]
    run_binary(args + (["--tiny"] if tiny else []), RUN_TIMEOUT_S)
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    start = time.monotonic()
    data = prepare_inputs(args.workload, args.seed, args.tiny)
    run = ["run", "--workload", args.workload, "--seed", str(args.seed),
           "--dir", data, "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    remaining = RUN_TIMEOUT_S - (time.monotonic() - start)
    out = run_binary(run, max(remaining, 1))
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the run printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: " + lines[-1])
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
