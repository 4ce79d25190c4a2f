#!/usr/bin/env python3
"""Shape check of the benchmark: every workload, traced and untraced, in
tiny mode.  Checks the last stdout line's shape (exact keys,
every metric of BENCHMARK.json with its unit, numeric values, no failures)
and the result file's provenance.

    python3 perfbench/test_run.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PROVENANCE = ("git_commit", "source_sha256", "scenario_hashes",
              "traffic_seeds", "probe_seed", "build_type", "compiler",
              "snapshot_format_version", "nproc", "sweep_jobs")


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=900)
    return out


class ShapeTest(unittest.TestCase):
    def check(self, workload, trace):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        last = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertIs(last["correct"], True)
        self.assertIsInstance(last["attempted"], int)
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        key = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        self.assertEqual(set(last["metrics"]), set(expected))
        for name, unit in expected.items():
            m = last["metrics"][name]
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertEqual(m["unit"], unit, name)
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        record = json.loads((ROOT / ".bench_out" /
                             f"result-{workload}-seed7-trace{trace}-tiny.json"
                             ).read_text())
        for k in PROVENANCE:
            self.assertIn(k, record["provenance"], k)
        self.assertEqual(record["error_rate"], 0)
        if trace:
            # Counters are simulated, so tracing must not move them.
            for name, m in last["metrics"].items():
                if name.startswith("assertions.violations"):
                    self.assertEqual(m["value"], 0, name)
            self.assertGreater(last["metrics"]["trace.coverage"]["value"], 0.5)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_rejects_unknown_workload(self):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        self.assertNotEqual(out.returncode, 0)


if __name__ == "__main__":
    unittest.main()
