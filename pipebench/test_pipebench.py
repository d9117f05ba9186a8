#!/usr/bin/env python3
"""The benchmark's own tests: a smoke run of every workload at tiny sizes in
both modes, the held-out seed, and negative tests that prove the correctness
gate fires. Run from the root of a checkout:

    python3 -m unittest pipebench/test_pipebench.py
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 7919  # documented in README.md; never used while tuning


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "pipebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def tiny(workload, *extra, seed=1, trace=0):
    return run_bench("--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace), "--tiny", *extra)


class Smoke(unittest.TestCase):
    def check_metrics(self, trace):
        wanted = {m["name"]: m["unit"]
                  for m in SPEC["per_layer" if trace else "end_to_end"]}
        for wl in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=wl, trace=trace):
                proc, res = tiny(wl, trace=trace)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, wanted)
                human = "\n".join(proc.stdout.splitlines()[:-1])
                for name, m in res["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                    self.assertRegex(human, rf"\b{re.escape(name)} +\S+ "
                                            rf"{re.escape(m['unit'])}\n")

    def test_every_end_to_end_metric_emitted_with_its_unit(self):
        self.check_metrics(trace=0)

    def test_every_per_layer_metric_emitted_with_its_unit(self):
        self.check_metrics(trace=1)

    def test_held_out_seed_passes_the_gate(self):
        for wl in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=wl):
                proc, res = tiny(wl, seed=HELD_OUT_SEED)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(res["correct"])

    def test_fingerprint_printed(self):
        proc, _ = tiny("kn_dense")
        line = next(l for l in proc.stdout.splitlines()
                    if l.startswith("fingerprint: "))
        fp = json.loads(line[len("fingerprint: "):])
        for key in ("nproc", "cpu", "mem_total", "compiler", "build_type",
                    "commit", "seed"):
            self.assertIn(key, fp)
        self.assertEqual(fp["build_type"], "Release")


class Gate(unittest.TestCase):
    def assert_gate_fires(self, proc, res):
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNotNone(res)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_spanner_with_edges_removed_fails(self):
        for wl in ("kn_dense", "er_sparse"):
            with self.subTest(workload=wl):
                self.assert_gate_fires(*tiny(wl, "--fault", "drop-edges"))

    def test_perturbed_payload_output_fails(self):
        for wl in ("kn_dense", "er_payload"):
            with self.subTest(workload=wl):
                self.assert_gate_fires(*tiny(wl, "--fault", "perturb-output"))

    def test_refuses_without_the_library_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "pipebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc, res = run_bench("--workload", "kn_dense", "--seed", "1",
                                  "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(res)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
