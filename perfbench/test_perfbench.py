#!/usr/bin/env python3
"""Tests of the benchmark itself, at its smallest size.

    python3 perfbench/test_perfbench.py

Every workload, untraced and traced, must print exactly the metrics that
BENCHMARK.json names, each with its unit, and pass its checks; the same
seed twice must draw the same cells and give the same model digest; and
without the levee sources next to it the benchmark must fail without
printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def tagged(stdout, tag):
    line = next(l for l in stdout.splitlines() if l.startswith(tag + ":"))
    return json.loads(line[len(tag) + 1:])


class Metrics(unittest.TestCase):
    def check(self, trace, wanted):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, 5, trace)
                self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                res = json.loads(r.stdout.splitlines()[-1])
                self.assertEqual(set(res),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"] for m in wanted})
                for k, v in res["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), k)
                host = tagged(r.stdout, "host")
                self.assertEqual(set(host), {"nproc", "cpu", "ocaml", "commit"})

    def test_end_to_end(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer(self):
        self.check(1, SPEC["per_layer"])


class Determinism(unittest.TestCase):
    def test_same_seed_same_model(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = tagged(run(w, 9, 0).stdout, "model")
                b = tagged(run(w, 9, 0).stdout, "model")
                self.assertEqual(a["draw"], b["draw"])
                self.assertEqual(a["digest"], b["digest"])
                self.assertEqual(a["sim_cycles"], b["sim_cycles"])


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("out"))
            r = run("spec-run", 1, 0, cwd=d)
            self.assertNotEqual(r.returncode, 0)
            self.assertFalse(r.stdout.strip().endswith("}"), r.stdout)


if __name__ == "__main__":
    unittest.main()
