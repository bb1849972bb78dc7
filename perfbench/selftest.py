"""Self-tests of the benchmark's tracer, workloads and checks.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about ten seconds.  The file
is not named test_*.py, so the package's own pytest run does not collect it.
"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
import warnings
from pathlib import Path

import numpy as np

from run import OUT, ROOT, import_cli, invoke
from speed import BRACKET, PROBE_REF_S, SpeedSampler
from spans import COUNTED_BINDINGS, LAYER_BINDINGS, QUADRATURE_BINDINGS, Tracer, layer_metrics, self_times
from workloads import (
    DRAWS_PER_STRATUM,
    POOL_PER_STRATUM,
    VERIFY_SUITES,
    calls_for,
    load_reference,
    read_reports,
    sweep_pool,
)

cli = import_cli()

from sigmadamp import quadrature  # noqa: E402
from sigmadamp.acceptance import AcceptanceLab  # noqa: E402
from sigmadamp.experiments import error_curve, gaussian_data  # noqa: E402
from sigmadamp.model import ModelParams, RateCase, case_for, validate  # noqa: E402

FRACTIONAL = ModelParams(n=3, sigma=1.0, sigma1=0.25, sigma2=0.75)


def _bindings():
    pairs = [(importlib.import_module(m), a) for m, a, *_ in LAYER_BINDINGS]
    pairs += [(importlib.import_module(m), a) for m, a in QUADRATURE_BINDINGS + COUNTED_BINDINGS]
    pairs += [(AcceptanceLab, f"check_{s}") for s in VERIFY_SUITES]
    return {(owner, attr): getattr(owner, attr) for owner, attr in pairs}


class TinyCurveCounts(unittest.TestCase):
    """Traced counts on a two-time curve equal counts made by hand."""

    def _traced_curve(self, k: int):
        panels = [0]
        panel = quadrature._panel

        def counting_panel(g, lo, hi):
            panels[0] += 1
            return panel(g, lo, hi)

        quadrature._panel = counting_panel
        try:
            with warnings.catch_warnings(), Tracer() as tracer:
                warnings.simplefilter("ignore")
                error_curve(FRACTIONAL, RateCase.POSITIVE_SIGMA1, k, gaussian_data(), t_grid=[100.0, 1000.0])
        finally:
            quadrature._panel = panel
        return tracer, layer_metrics(tracer, 1, ()), panels[0]

    def test_integrand_calls_equal_panels_evaluated(self):
        for k, muls in ((0, None), (1, 13), (2, 23), (3, 33)):
            with self.subTest(k=k):
                _, m, panels = self._traced_curve(k)
                self.assertEqual(m["quadrature.integrand.calls"], panels)
                self.assertEqual(m["quadrature.l2_radial.calls"], 2)
                self.assertEqual(m["quadrature.nodes_per_call"], 15)
                self.assertEqual(m["kernels.exact_multipliers.calls"], panels)
                self.assertEqual(m["profiles.profile_pair.calls"], panels)
                if muls is None:
                    self.assertEqual(m["kernels.kernel_jets.calls"], 0)
                else:
                    self.assertEqual(m["kernels.kernel_jets.calls"], 2 * panels)
                    self.assertEqual(m["profiles.kernel_jets_per_pair"], 2)
                    self.assertEqual(m["jet2.mul_per_kernel_jets"], muls)

    def test_self_time_excludes_children(self):
        tracer, _, _ = self._traced_curve(1)
        a = tracer.arrays()
        dur = a["end"] - a["start"]
        self_t = self_times(a["parent"], dur)
        self.assertTrue(np.all(self_t >= 0.0))
        # self times partition the root spans' time
        self.assertAlmostEqual(self_t.sum(), dur[a["parent"] < 0].sum(), places=9)

    def test_self_times_on_hand_made_spans(self):
        # root [0, 10] with children [1, 4] and [5, 6]; [2, 3] nests in the first child
        parent = np.array([-1, 0, 1, 0], dtype=np.int32)
        start = np.array([0.0, 1.0, 2.0, 5.0])
        end = np.array([10.0, 4.0, 3.0, 6.0])
        np.testing.assert_allclose(self_times(parent, end - start), [6.0, 2.0, 1.0, 1.0])


class Bindings(unittest.TestCase):
    def test_every_binding_restored(self):
        before = _bindings()
        with Tracer(VERIFY_SUITES):
            during = _bindings()
        self.assertTrue(all(during[key] is not before[key] for key in before))
        self.assertEqual(_bindings(), before)

    def test_restored_after_an_error(self):
        before = _bindings()
        with self.assertRaises(ZeroDivisionError), Tracer(VERIFY_SUITES):
            1 / 0
        self.assertEqual(_bindings(), before)


class TracedReportsIdentical(unittest.TestCase):
    """A traced call writes the same report bytes as an untraced one."""

    def test_curve_and_verify(self):
        calls = (
            ("curve", "--k", "2", "--t-min", "100", "--t-max", "1000", "--per-decade", "2"),
            ("verify", "--suites", "closed_forms,jet_oracle,ode_residual"),
        )
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="selftest-", dir=OUT) as tmp:
            for j, argv in enumerate(calls):
                plain, traced = Path(tmp) / f"plain{j}", Path(tmp) / f"traced{j}"
                rc_plain, _ = invoke(cli.main, argv, plain)
                with Tracer(VERIFY_SUITES) as tracer:
                    rc_traced, _ = invoke(tracer.wrap("cli", cli.main), argv, traced)
                self.assertEqual(rc_plain, rc_traced)
                self.assertEqual(read_reports(plain)[0], read_reports(traced)[0])
                self.assertGreater(len(tracer.start), 1)


class Speed(unittest.TestCase):
    def test_sampler_probes_inside_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with SpeedSampler() as speed:
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreaterEqual(len(speed.samples), 2 * BRACKET + 2)
        self.assertGreater(speed.inside_s, 0.0)
        self.assertAlmostEqual(speed.scale * sum(speed.samples) / len(speed.samples), PROBE_REF_S)


class Workloads(unittest.TestCase):
    def test_pool_inside_the_validated_domain(self):
        pool = sweep_pool()
        self.assertEqual(len(pool), 4 * POOL_PER_STRATUM)
        for argv in pool:
            flags = dict(zip(argv[1::2], argv[2::2]))
            p = ModelParams(
                n=int(flags["--dim"]), sigma=float(flags["--sigma"]),
                sigma1=float(flags["--sigma1"]), sigma2=float(flags["--sigma2"]),
            )
            validate(p, case_for(p))

    def test_sweep_is_seeded_and_stratified(self):
        first = calls_for("sweep_k0", 7)
        self.assertEqual(first, calls_for("sweep_k0", 7))
        self.assertNotEqual(first, calls_for("sweep_k0", 8))
        pool = sweep_pool()
        strata = [pool.index(c.argv) // POOL_PER_STRATUM for c in first]
        self.assertEqual(sorted(strata), sorted(list(range(4)) * DRAWS_PER_STRATUM))

    def test_every_call_has_a_reference(self):
        reference = load_reference()
        for workload in ("verify", "curve_k3", "sweep_k0"):
            for seed in range(50):
                for call in calls_for(workload, seed):
                    self.assertIn(call.key, reference)


class ExitsWithoutThePackage(unittest.TestCase):
    def test_no_result_beside_only_the_benchmark(self):
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="bare-", dir=OUT) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "curve_k3", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        self.assertEqual(proc.returncode, 2)
        for line in proc.stdout.splitlines():
            with self.assertRaises(json.JSONDecodeError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
