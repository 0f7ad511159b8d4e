#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_benchmark.py

For every workload it runs the benchmark twice with one seed and checks
that the quality metrics are bit-identical and that both runs trained the
same model (equal digests of the Predictor::save text), so training
nondeterminism cannot silently change a workload between runs. It also
checks the printed metrics against BENCHMARK.json, untraced and traced.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

QUALITY = ("mean_fidelity", "beats_baselines_share", "decided_share")
SEED = 3
SECONDS = 2

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    CONFIG = json.load(f)
BINARY = run.build()


def bench(workload, trace):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=run.RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.decode().strip().splitlines()
    digest = next(m.group(1) for line in lines
                  if (m := re.match(r"# model digest (\w+)$", line)))
    return json.loads(lines[-1]), digest


class Determinism(unittest.TestCase):
    def test_same_seed_same_quality_and_model(self):
        for workload in run.workloads_of(CONFIG):
            with self.subTest(workload=workload):
                first, first_digest = bench(workload, 0)
                second, second_digest = bench(workload, 0)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(first_digest, second_digest)
                for name in QUALITY:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


class Contract(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            [(k, v["unit"]) for k, v in result["metrics"].items()],
            [(m["name"], m["unit"]) for m in declared])

    def test_printed_metrics_match_the_declaration(self):
        for workload in run.workloads_of(CONFIG):
            with self.subTest(workload=workload):
                plain, _ = bench(workload, 0)
                self.check_metrics(plain, CONFIG["end_to_end"])
                for m in CONFIG["end_to_end"]:
                    self.assertNotEqual(plain["metrics"][m["name"]]["value"], 0)
                traced, _ = bench(workload, 1)
                self.check_metrics(traced, CONFIG["per_layer"])
                self.assertTrue(traced["correct"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
