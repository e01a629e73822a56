#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs the traced run of every workload on a second seed (2) and checks that
it still supports every named percentile (at least 100 loop samples per
instance, so loop_cpu_ms_p90 has ten beyond it), that it meets the output
format with the metric names and units of BENCHMARK.json, and that its
correctness checks hold. Also checks that the
benchmark fails, without printing a result, in a directory holding only
BENCHMARK.json and perfbench/. Takes a few minutes: each traced run plays
its workload three times.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 2


def run(workload: str, trace: int) -> subprocess.CompletedProcess:
    """One run of the shortest length: a single instance."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)


class TracedRunTest(unittest.TestCase):
    results: dict[str, dict] = {}

    @classmethod
    def setUpClass(cls) -> None:
        for w in SPEC["workloads"]:
            proc = run(w["name"], trace=1)
            if proc.returncode != 0:
                raise AssertionError(f"{w['name']}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
            cls.results[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])

    def test_output_format(self) -> None:
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name, result in self.results.items():
            with self.subTest(workload=name):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(units))
                for key, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], units[key], key)
                    self.assertTrue(math.isfinite(metric["value"]), key)

    def test_second_seed_supports_every_percentile(self) -> None:
        # loop_cpu_ms_p90 needs ten samples beyond it: 100 per instance.
        for name, result in self.results.items():
            m = result["metrics"]
            samples = m["loop.decisions"]["value"] + m["loop.reconvergences"]["value"]
            with self.subTest(workload=name):
                self.assertGreaterEqual(samples, 100)

    def test_each_workload_exercises_its_loop(self) -> None:
        m = {name: r["metrics"] for name, r in self.results.items()}
        self.assertGreaterEqual(m["igp_churn"]["loop.reconvergences"]["value"], 100)
        self.assertEqual(m["igp_churn"]["controller.placement_solves"]["value"], 0)
        self.assertGreaterEqual(m["flash_crowd"]["loop.decisions"]["value"], 100)
        self.assertEqual(m["flash_crowd"]["loop.reconvergences"]["value"], 0)
        self.assertGreaterEqual(m["failover_crowd"]["loop.decisions"]["value"], 100)
        self.assertEqual(m["failover_crowd"]["loop.reconvergences"]["value"], 40)
        self.assertGreater(m["failover_crowd"]["shard.cross_shard_messages"]["value"], 0)
        self.assertEqual(m["flash_crowd"]["shard.cross_shard_messages"]["value"], 0)


class UntracedRunTest(unittest.TestCase):
    def test_end_to_end_metrics(self) -> None:
        proc = run("flash_crowd", trace=0)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
        for key, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0.0, key)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self) -> None:
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "flash_crowd", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
