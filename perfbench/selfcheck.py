"""Self-checks of the benchmark harness (not of plorder itself).

    python3 perfbench/selfcheck.py

- The job list is a function of the seed: the same seed gives the same
  list, another seed a different one.
- Two traced runs with the same seed give identical call counts, ratios and
  maxima, also across processes with different string-hash seeds.
- job_tail_ms leaves exactly TAIL_BEYOND latencies beyond it in one pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SUBSET = 3  # cheapest jobs per workload replayed under the tracer


def deterministic(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items()
            if k.endswith((".calls", "ratio", "_per_locate", "_per_call"))
            or ".max_" in k}


def traced_counts(workload: str, seed: int) -> dict:
    """Deterministic per-layer metrics of a traced run of a few jobs."""
    plan = workloads.WORKLOADS[workload](seed)
    jobs = [j for j in plan.jobs if "--radius 5" not in j.label][:SUBSET]
    tracer = Tracer()
    tracer.install()
    try:
        for job in jobs:
            tracer.job(job.label, job.run)
    finally:
        tracer.unpatch()
    return deterministic(tracer.metrics())


class JobLists(unittest.TestCase):
    def test_seed_fixes_the_job_list(self):
        for name, setup in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                a = [j.label for j in setup(5).jobs]
                self.assertEqual(a, [j.label for j in setup(5).jobs])
                self.assertNotEqual(a, [j.label for j in setup(6).jobs])


class TracedDeterminism(unittest.TestCase):
    def test_same_seed_same_counts_in_process(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = traced_counts(name, 3)
                self.assertTrue(any(v for k, v in first.items() if k.endswith(".calls")))
                self.assertEqual(first, traced_counts(name, 3))

    def test_same_seed_same_counts_across_processes(self):
        code = ("import json, selfcheck; print(json.dumps("
                "{w: selfcheck.traced_counts(w, 4) for w in selfcheck.workloads.WORKLOADS}))")
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                                  capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            outs.append(json.loads(proc.stdout.splitlines()[-1]))
        self.assertEqual(outs[0], outs[1])


class TailPercentile(unittest.TestCase):
    def test_exactly_ten_beyond_in_one_pass(self):
        for n in (40, 100):
            values = list(range(n))
            t = run.tail(values, n)
            self.assertEqual(sum(1 for v in values if v > t), run.TAIL_BEYOND)
            doubled = sorted(values * 2)
            self.assertEqual(sum(1 for v in doubled if v > run.tail(doubled, n)),
                             2 * run.TAIL_BEYOND)


if __name__ == "__main__":
    unittest.main()
