#!/usr/bin/env python3
"""The benchmark's own test: quick mode on every workload.

    python3 perfbench/test_perfbench.py

Runs run.py --quick (tiny sizes) for each workload with tracing off and
on, at two seeds, and checks:
  * the last stdout line is exactly the result schema, `correct` is true
    and nothing failed;
  * the metric names and units are exactly BENCHMARK.json's, and every
    unit is the one its name's suffix says (`_s`, `_ms`, `_us`,
    `_per_s`, `_mb`; bare names are counts);
  * every value is in that unit: recomputed from the harness's raw
    nanosecond / kilobyte measurements with the scale the suffix implies,
    and no real time exceeds the wall time of the command itself;
  * the correctness gate fails the command on a wrong recorded value;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    command fails without printing a result.
"""

import json
import math
import re
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_walk", "cold_crawl", "tenant_mix")
SEEDS = (1, 2)
# Metrics on the simulated LatencyModel clock, not real time.
SIMULATED = {"sim_wall_s", "service.sim_session_ms_p50"}
NS_PER_UNIT = {"s": 1e9, "ms": 1e6, "us": 1e3}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def unit_for(name):
    """The unit a metric's name promises. A percentile tag (`_p50`) follows
    the unit: `session_ms_p95` is in ms."""
    name = re.sub(r"_p\d+$", "", name)
    if name.endswith("_per_s"):
        return "1/s"
    for suffix in ("_ms", "_us", "_s"):
        if name.endswith(suffix):
            return suffix[1:]
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_record"):
        return "B/record"
    if name.endswith(("_rate", "_frac", "_overhead", "_utilization")):
        return "ratio"
    if name.endswith("mean_batch"):
        return "items/req"
    return "count"


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def run(workload, seed, trace, extra=(), cwd=ROOT):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--quick", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc, time.monotonic() - start


def raw_document(workload, seed, trace):
    path = os.path.join(build_dir(), "results",
                        f"quick-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


class QuickModeTest(unittest.TestCase):
    def check_result(self, workload, seed, trace):
        proc, wall_s = run(workload, seed, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

        spec = BENCHMARK["end_to_end" if trace == 0 else "per_layer"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in spec))
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertEqual(got["unit"], unit_for(m["name"]), m["name"])
            value = got["value"]
            self.assertIsInstance(value, (int, float), m["name"])
            self.assertTrue(math.isfinite(value), m["name"])
            if trace == 0:
                self.assertGreater(value, 0, m["name"])
            scale = NS_PER_UNIT.get(got["unit"])
            if scale is not None and m["name"] not in SIMULATED:
                self.assertLessEqual(value * scale, wall_s * 1e9, m["name"])
        self.check_units_against_raw(workload, seed, trace, result)

    def check_units_against_raw(self, workload, seed, trace, result):
        """Recomputes metrics from the harness's raw ns/KB measurements
        using only the scale each name's suffix implies."""
        doc = raw_document(workload, seed, trace)["raw"]
        untraced = [r for r in doc["rounds"] if not r["traced"]]
        traced = [r for r in doc["rounds"] if r["traced"]]
        metrics = {n: v["value"] for n, v in result["metrics"].items()}

        def scaled(name, raw_ns):
            return raw_ns / NS_PER_UNIT[unit_for(name)]

        expected = {}
        if trace == 0:
            expected["setup_s"] = scaled(
                "setup_s", statistics.median(r["setup_ns"] for r in untraced))
            expected["steps_per_s"] = sum(r["steps"] for r in untraced) / (
                sum(r["timed_ns"] for r in untraced) / NS_PER_UNIT["s"])
            expected["peak_rss_mb"] = statistics.median(
                r["peak_rss_kb"] for r in untraced) * 1024 / 1e6
        else:
            expected["api.build_ms"] = scaled(
                "api.build_ms", statistics.median(r["build_ns"]
                                                  for r in traced))
            expected["backend.fetch_us_p50"] = scaled(
                "backend.fetch_us_p50",
                statistics.median(r["backend"]["p50_ns"] for r in traced))
            expected["prof.walker_step_self_ms"] = scaled(
                "prof.walker_step_self_ms",
                statistics.median(r["prof"]["walker/step"] for r in traced))
            if workload == "cold_crawl":
                expected["store.flush_ms"] = scaled(
                    "store.flush_ms", statistics.median(
                        r["store"]["flush_ns"] for r in traced))
            if workload == "tenant_mix":
                latencies = [s["client_ns"] for r in untraced
                             for s in r["sessions"]]
                expected["session_ms_p50"] = scaled(
                    "session_ms_p50", statistics.median(latencies))
        for name, want in expected.items():
            self.assertAlmostEqual(metrics[name], want,
                                   delta=1e-9 * max(1.0, abs(want)),
                                   msg=name)

    def test_quick_mode_schema_units_and_gate(self):
        for workload in WORKLOADS:
            for seed in SEEDS:
                for trace in (0, 1):
                    with self.subTest(workload=workload, seed=seed,
                                      trace=trace):
                        self.check_result(workload, seed, trace)

    def test_gate_rejects_wrong_recorded_values(self):
        with tempfile.TemporaryDirectory() as tmp:
            expected = os.path.join(tmp, "expected.json")
            with open(expected, "w") as f:
                json.dump({"quick": {"cold_crawl": {"1": "0" * 64}}}, f)
            proc, _ = run("cold_crawl", 1, 0, ["--expected", expected])
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertIs(result["correct"], False)
        self.assertIn("GATE FAILED", proc.stdout)

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "hot_walk", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, env=env, capture_output=True, text=True,
                timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        lines = proc.stdout.strip().splitlines()
        self.assertFalse(lines and lines[-1].startswith("{"), proc.stdout)


if __name__ == "__main__":
    unittest.main()
