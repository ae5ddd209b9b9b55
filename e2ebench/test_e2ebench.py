#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a source checkout:

    python3 e2ebench/test_e2ebench.py

They build the benchmark (as run.py does) and use tiny inputs, so they
take about a minute after the build. Their files go under .bench_data/test/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "e2ebench", "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "e2ebench", "e2ebench")
WORK = os.path.join(ROOT, ".bench_data", "test")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, seed=7):
    """Runs a tiny one-second run; returns (stdout lines, result)."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr[-2000:]
    lines = done.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def gen(workload, seed, name):
    """Generates tiny inputs into a fresh directory under WORK."""
    out = os.path.join(WORK, name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    subprocess.run([BINARY, "gen", "--workload", workload, "--seed",
                    str(seed), "--dir", out, "--tiny"], check=True,
                   timeout=120)
    return out


def read(path):
    with open(path, "rb") as f:
        return f.read()


class TinyRuns(unittest.TestCase):
    def test_every_metric_printed_with_its_unit_and_nothing_fails(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run_bench(workload, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertIn("# failed_frac: 0", lines)
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float),
                                              name)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


class Determinism(unittest.TestCase):
    def test_same_seed_same_statements_and_digests(self):
        for workload in ("lookup", "analytic"):
            with self.subTest(workload=workload):
                a = gen(workload, 11, workload + "-a")
                b = gen(workload, 11, workload + "-b")
                c = gen(workload, 12, workload + "-c")
                stream = read(os.path.join(a, "stream.tsv"))
                # Each line: client, digest rows, digest hash, statement.
                self.assertEqual(stream, read(os.path.join(b, "stream.tsv")))
                self.assertNotEqual(stream,
                                    read(os.path.join(c, "stream.tsv")))

    def test_same_seed_same_integrated_digest(self):
        def digest(seed):
            lines, _ = run_bench("integrate", 0, seed)
            return [l for l in lines if l.startswith("# reference_digest")]
        first = digest(5)
        self.assertEqual(len(first), 1)
        self.assertEqual(first, digest(5))
        self.assertNotEqual(first, digest(6))


class Harness(unittest.TestCase):
    def test_span_self_time_arithmetic(self):
        run_bench("integrate", 0)  # builds the binary
        done = subprocess.run([BINARY, "selftest"], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=60)
        self.assertEqual(done.returncode, 0, done.stdout)

    def test_refuses_without_engine_sources(self):
        bare = os.path.join(WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "e2ebench"),
                        os.path.join(bare, "e2ebench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", "lookup",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
