"""Self-tests of the benchmark.

    python3 perfbench/selftest.py        (about a minute; from the repo root)

They check that the names and units in BENCHMARK.json are well formed and
name the workloads run.py runs, that every workload prints every metric
with its unit, and that tracing is
transparent: the wrappers reach every import site, are restored afterwards,
and leave every output bit-identical.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import run  # noqa: E402  (pins the BLAS threads before numpy is imported)

for _var in run.THREAD_VARS:
    os.environ[_var] = run.BLAS_THREADS

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def bench(workload: str, trace: int, seconds: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Names(unittest.TestCase):
    def test_metric_names_and_units_are_well_formed(self):
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_benchmark_json_names_every_workload(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        self.assertIn("setup_s", END_TO_END)


class Outputs(unittest.TestCase):
    def test_every_workload_prints_every_end_to_end_metric(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                res = bench(workload, trace=0)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, END_TO_END)
                for name, metric in res["metrics"].items():
                    value = metric["value"]
                    self.assertTrue(math.isfinite(value) and value > 0, (name, value))

    def test_traced_run_prints_every_per_layer_metric(self):
        res = bench("tram", trace=1)
        self.assertTrue(res["correct"])
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, PER_LAYER)
        self.assertGreater(res["metrics"]["tram.iters"]["value"], 0)


class Transparency(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tk = workloads.import_tramkit()
        cls.data = workloads.fixture_data(cls.tk)

    def snapshot(self):
        mods = spans._package_modules()
        return {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()} | {
            ("Dataset", "prefix"): id(self.tk.core.Dataset.__dict__["prefix"])
        }

    def test_wrappers_reach_every_import_site_and_are_restored(self):
        before = self.snapshot()
        with spans.Tracer() as tracer:
            self.assertGreater(tracer.sites, 50)
            for short in spans.TRACED_MODULES:
                mod = sys.modules[f"tramkit.{short}"]
                for fname in spans._public_functions(mod):
                    self.assertTrue(hasattr(mod, fname) and hasattr(getattr(mod, fname), "__wrapped__"))
            # names imported from another module are wrapped there too
            self.assertTrue(hasattr(self.tk.solver.assign_nearest, "__wrapped__"))
            self.assertTrue(hasattr(self.tk.tram.empirical_risk, "__wrapped__"))
            self.assertTrue(hasattr(self.tk.run_sweep, "__wrapped__"))
            self.assertTrue(hasattr(self.tk.core.Dataset.prefix, "__wrapped__"))
        self.assertEqual(self.snapshot(), before)

    def test_tram_outputs_identical_with_tracing(self):
        def digest():
            traces = {r: workloads.navigate(self.tk, self.data, r)[1] for r in (0, 1)}
            return workloads.tram_digest(traces)

        plain = digest()
        with spans.Tracer() as tracer:
            traced = digest()
        self.assertEqual(plain, traced)
        self.assertGreater(len(tracer.spans), 0)

    def test_sweep_outputs_identical_with_tracing(self):
        tk = self.tk

        def digest():
            lams = {
                proc: tk.tradeoff.run_sweep(
                    self.data,
                    tk.tradeoff.SweepGrid(
                        (300, 1000), (50, 100), proc, workloads.sweep_solver(tk), repeats=2, seed=1
                    ),
                )
                for proc in ("uniform", "coreset")
            }
            return workloads.sweep_digest(0.0, lams)

        plain = digest()
        with spans.Tracer():
            traced = digest()
        self.assertEqual(plain, traced)

    def test_cli_outputs_identical_with_tracing(self):
        work = workloads.OUT_DIR / "selftest-cli"
        try:
            digests = []
            for trace in (False, True):
                tracer = spans.Tracer()
                if trace:
                    tracer.install()
                try:
                    _, _, codes = workloads.cli_chain(self.tk, work, seed=1)
                finally:
                    tracer.restore()
                self.assertEqual(workloads.check_cli(work, codes), [])
                digests.append(workloads.cli_digest(work))
            self.assertEqual(digests[0], digests[1])
        finally:
            import shutil

            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
