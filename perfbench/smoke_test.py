#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, both modes.

  python3 perfbench/smoke_test.py

Runs `run.py --smoke` for each workload untraced and traced, and asserts
that the last output line is a result object whose output checks passed
and that it carries every metric BENCHMARK.json names, with its unit.
Every end-to-end metric must be positive, and so must every per-layer
metric of a layer the workload reaches (the "on" column of README.md).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that must read above 0 on each workload.  Differences
# of two timings (driver.overhead_ms, unattributed_ms, trace_overhead_pct)
# and counts that are 0 when all is well (service.rejected,
# graph.over_dense_cap at smoke size) are left out.
SOLVER_LAYERS = [
    "trace.tasks", "ir.ssa_ms", "ir.liveness_ms", "ir.interference_ms",
    "ir.spill_rewrite_ms", "ir.spill_loads", "ir.spill_stores", "ir.values",
    "ir.instrs", "graph.mcs_ms", "graph.cliques_ms", "graph.edges",
    "core.problem_build_self_ms", "core.clique_members", "core.assign_ms",
    "alloc.allocate_ms", "alloc.pipeline_ms", "alloc.later_rounds_ms",
    "alloc.rounds", "driver.run_ms", "driver.hash_ms", "driver.cache_misses",
]
SERVICE_SPANS = ["accept_ms", "queue_wait_ms", "dispatch_ms", "driver_ms",
                 "flush_net_ms"]
REACHED = {
    "batch-suites": SOLVER_LAYERS + ["suites.make_ms"],
    "batch-large": SOLVER_LAYERS,
    "serve-jit": SOLVER_LAYERS + [
        "ir.parse_ms", "core.delta_classify_ms", "core.delta_build_ms",
        "driver.cache_hits", "driver.delta_hits", "driver.delta_fallbacks",
        "service.request_parse_ms", "service.queue_wait_ms.high",
        "service.response_bytes", "p50_ms.high", "p99_ms.low",
        "p99_ms.high", "goodput_rps",
    ] + [f"service.{span}" for span in SERVICE_SPANS] + [
        f"service.{kind}.{span}" for kind in ("new", "edit", "repeat")
        for span in SERVICE_SPANS],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check(self, trace):
        metrics = self.bench["per_layer" if trace else "end_to_end"]
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, result = run(w["name"], trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                for m in metrics:
                    got = result["metrics"].get(m["name"])
                    self.assertIsNotNone(got, m["name"])
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float))
                    if not trace or m["name"] in REACHED[w["name"]]:
                        self.assertGreater(got["value"], 0, m["name"])

    def test_end_to_end_metrics(self):
        self.check(trace=0)

    def test_per_layer_metrics(self):
        self.check(trace=1)


if __name__ == "__main__":
    unittest.main()
