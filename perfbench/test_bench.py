#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/test_bench.py

Runs every workload at a tiny scale, untraced and traced, and checks its
result line against BENCHMARK.json; shows that a deliberately corrupted
result is caught (failed > 0, correct false, non-zero exit); shows that
the metric check rejects a missing, renamed or re-united metric; and
shows that one seed always yields the same inputs.
"""

import copy
import importlib.util
import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

BENCH = run.load_bench()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY = ["--scale", "0.05", "--seconds", "0.5"]


def invoke(workload, trace=0, corrupt=False):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "3", "--trace", str(trace)] + TINY
    if corrupt:
        cmd.append("--corrupt")
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p.stderr


class BenchmarkTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    rc, res, err = invoke(workload, trace)
                    self.assertEqual(rc, 0, err)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
                    self.assertEqual(list(res["metrics"]), [m["name"] for m in wanted])
                    for m in wanted:
                        got = res["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertTrue(math.isfinite(got["value"]))

    def test_corrupted_result_is_caught(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, res, err = invoke(workload, corrupt=True)
                self.assertNotEqual(rc, 0, err)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)

    def test_missing_renamed_or_reunited_metric_fails(self):
        good = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCH["end_to_end"]}
        self.assertEqual(run.validate(good, BENCH, trace=0), [])
        first = BENCH["end_to_end"][0]["name"]
        missing = copy.deepcopy(good)
        del missing[first]
        self.assertTrue(run.validate(missing, BENCH, trace=0))
        renamed = copy.deepcopy(good)
        renamed[first + "_renamed"] = renamed.pop(first)
        self.assertTrue(run.validate(renamed, BENCH, trace=0))
        reunited = copy.deepcopy(good)
        reunited[first]["unit"] = "furlong"
        self.assertTrue(run.validate(reunited, BENCH, trace=0))
        not_a_number = copy.deepcopy(good)
        not_a_number[first]["value"] = float("nan")
        self.assertTrue(run.validate(not_a_number, BENCH, trace=0))

    def test_same_seed_same_inputs(self):
        driver = run.build(run.build_dir())
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                digests = []
                for _ in range(2):
                    with tempfile.TemporaryDirectory(dir=run.build_dir()) as d:
                        subprocess.run([str(driver), "prepare", "--workload", workload,
                                        "--seed", "5", "--scale", "0.05", "--dir", d],
                                       check=True, timeout=120)
                        digests.append({p.name: p.read_bytes() for p in Path(d).iterdir()})
                self.assertEqual(digests[0], digests[1])


if __name__ == "__main__":
    unittest.main(verbosity=2)
