#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/test_smoke.py

Runs every workload through run.py --smoke on the held-out seed,
untraced and traced, and checks the result line: its exact keys, zero
failed campaigns, the reference digest, and every metric the
benchmark declares.  Takes about a minute once built.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

TIME_UNITS = ("s", "ms", "us", "ns")


def smoke(workload, trace, seed=run.HELD_OUT_SEED):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True,
        timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        rc, lines = smoke(workload, trace)
        self.assertEqual(rc, 0)
        self.assertTrue(lines[-2].startswith("host: "))
        host = json.loads(lines[-2][len("host: "):])
        self.assertEqual(host["workload"], workload)
        self.assertIn(host["tagscan"], ("scalar", "swar", "sse2", "avx2"))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(result["metrics"]), set(names))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], names[name])
            # Every time is measured on every workload.
            if not trace or m["unit"] in TIME_UNITS:
                self.assertGreater(m["value"], 0, name)
        return result["metrics"]

    def test_population(self):
        self.check("population-4c", 0)
        layers = self.check("population-4c", 1)
        self.assertEqual(layers["exec.shards"]["value"], 1)
        self.assertGreater(layers["badco.walk_us_per_cell"]["value"], 0)

    def test_hybrid(self):
        self.check("hybrid-4c", 0)
        layers = self.check("hybrid-4c", 1)
        self.assertGreater(layers["fidelity.escalated_rows"]["value"], 0)
        self.assertGreater(layers["sim.detailed.cell_ms_p50"]["value"], 0)

    def test_distributed(self):
        self.check("distributed-4c", 0)
        layers = self.check("distributed-4c", 1)
        self.assertEqual(layers["serve.dedup_hits"]["value"], 0)
        self.assertGreater(layers["serve.leases_granted"]["value"], 0)

    def test_unlisted_seed_uses_serial_reference(self):
        rc, lines = smoke("population-4c", 0, seed=987654321)
        self.assertEqual(rc, 0)
        self.assertTrue(json.loads(lines[-1])["correct"])

    def test_declared_metrics_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        for key, names in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]},
                             names)


if __name__ == "__main__":
    unittest.main()
