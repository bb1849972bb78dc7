"""Span tracing of sigmadamp's layers from outside the package.

`Tracer` rebinds each layer function where its caller looks it up (for
example `sigmadamp.experiments.exact_multipliers`), so every call into a layer
records a span: name, start, end, parent span and the number of radial nodes
it was handed.  The integrand handed to `l2_radial` is wrapped as well, which
makes one span per quadrature panel.  Jet products are only counted, because
a span per product would cost more than the product.  Leaving the `with`
block restores every original binding.

Spans live in flat arrays while the run lasts (tens of bytes per span); the
per-layer numbers are derived from them afterwards by `layer_metrics`.
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name, position of the radius argument or None)
LAYER_BINDINGS = (
    ("sigmadamp.experiments", "exact_multipliers", "kernels.exact_multipliers", 2),
    ("sigmadamp.acceptance", "exact_multipliers", "kernels.exact_multipliers", 2),
    ("sigmadamp.profiles", "kernel_jets", "kernels.kernel_jets", 2),
    ("sigmadamp.acceptance", "kernel_jets", "kernels.kernel_jets", 2),
    ("sigmadamp.experiments", "profile_pair", "profiles.profile_pair", 4),
    ("sigmadamp.acceptance", "profile_pair", "profiles.profile_pair", 4),
    ("sigmadamp.cli", "error_curve", "experiments.error_curve", None),
    ("sigmadamp.acceptance", "error_curve", "experiments.error_curve", None),
    ("sigmadamp.acceptance", "high_freq_decay_check", "experiments.high_freq_decay_check", None),
    ("sigmadamp.experiments", "fit_loglog", "fitting", None),
    ("sigmadamp.experiments", "fit_exponential", "fitting", None),
    ("sigmadamp.quadrature", "fit_loglog", "fitting", None),
)
# l2_radial gets its own wrapper, which also wraps the integrand it is handed
QUADRATURE_BINDINGS = (
    ("sigmadamp.experiments", "l2_radial"),
    ("sigmadamp.quadrature", "l2_radial"),
)
# jet2.mul is reached through both names: kernels calls it directly, and the
# jet2 compositions (reciprocal, sqrt_jet, exp_jet) call it internally
COUNTED_BINDINGS = (
    ("sigmadamp.kernels", "mul"),
    ("sigmadamp.jet2", "mul"),
)

CLI = "cli"
INTEGRAND = "quadrature.integrand"
L2_RADIAL = "quadrature.l2_radial"
SUITE_PREFIX = "acceptance."


class Tracer:
    """Context manager that records spans around sigmadamp's layer calls."""

    def __init__(self, suites=()):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nodes = array("q")
        self._stack: list[int] = []
        # jet products counted by the name id of the innermost open span (-1: none)
        self.mul_calls: dict[int, int] = {}
        self._suites = tuple(suites)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, func, nodes_arg: int | None = None):
        """Return func recording one span per call under `name`."""
        nid = self._id(name)
        stack = self._stack
        name_id, parent, start, end, nodes = (
            self.name_id, self.parent, self.start, self.end, self.nodes
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            nodes.append(int(np.size(args[nodes_arg])) if nodes_arg is not None else 0)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def _count(self, func):
        counts = self.mul_calls
        stack = self._stack
        name_id = self.name_id

        def counted(*args, **kwargs):
            key = name_id[stack[-1]] if stack else -1
            counts[key] = counts.get(key, 0) + 1
            return func(*args, **kwargs)

        return counted

    def _wrap_l2_radial(self, func):
        from sigmadamp.quadrature import RadialIntegrand

        def l2_radial(f, *args, **kwargs):
            if isinstance(f, RadialIntegrand):
                f = RadialIntegrand(self.wrap(INTEGRAND, f.func, 0), f.singularity_exponent)
            else:
                f = self.wrap(INTEGRAND, f, 0)
            return func(f, *args, **kwargs)

        return self.wrap(L2_RADIAL, l2_radial)

    # -- binding -----------------------------------------------------------------

    def _rebind(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        from sigmadamp.acceptance import AcceptanceLab

        try:
            for module, attr, name, nodes_arg in LAYER_BINDINGS:
                owner = importlib.import_module(module)
                self._rebind(owner, attr, self.wrap(name, getattr(owner, attr), nodes_arg))
            for module, attr in QUADRATURE_BINDINGS:
                owner = importlib.import_module(module)
                self._rebind(owner, attr, self._wrap_l2_radial(getattr(owner, attr)))
            for module, attr in COUNTED_BINDINGS:
                owner = importlib.import_module(module)
                self._rebind(owner, attr, self._count(getattr(owner, attr)))
            # the lab binds its check methods when constructed, inside cli.main
            for suite in self._suites:
                attr = f"check_{suite}"
                self._rebind(
                    AcceptanceLab, attr, self.wrap(SUITE_PREFIX + suite, getattr(AcceptanceLab, attr))
                )
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "nodes": np.frombuffer(self.nodes, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write every span (name, start, end, parent, nodes) as a compressed .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children (parent -1: root)."""
    nested = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[nested], dur[nested])
    return dur - child


def layer_metrics(tracer: Tracer, passes: int, suites) -> dict[str, float]:
    """Per-layer counts and times, per traced pass.

    Ratios are taken over the whole traced run; a ratio or a per-node
    time whose base is zero on this workload reads 0.
    """
    a = tracer.arrays()
    ids = a["name_id"]
    parent = a["parent"]
    dur = a["end"] - a["start"]
    nested = parent >= 0
    self_t = self_times(parent, dur)

    def mask(name: str) -> np.ndarray:
        nid = tracer._name_ids.get(name)
        return ids == nid if nid is not None else np.zeros(ids.shape, dtype=bool)

    def ratio(num: float, den: float) -> float:
        return float(num) / float(den) if den else 0.0

    em, kj, pp = mask("kernels.exact_multipliers"), mask("kernels.kernel_jets"), mask("profiles.profile_pair")
    integ, l2 = mask(INTEGRAND), mask(L2_RADIAL)
    pp_id = tracer._name_ids.get("profiles.profile_pair", -2)
    kj_id = tracer._name_ids.get("kernels.kernel_jets", -2)
    kj_in_pp = kj & nested & (ids[np.maximum(parent, 0)] == pp_id)
    pairs_with_jets = np.unique(parent[kj_in_pp]).size
    mul_total = sum(tracer.mul_calls.values())
    mul_in_kj = tracer.mul_calls.get(kj_id, 0)

    out = {
        "kernels.exact_multipliers.calls": em.sum() / passes,
        "kernels.exact_multipliers.nodes": a["nodes"][em].sum() / passes,
        "kernels.exact_multipliers.s": dur[em].sum() / passes,
        "kernels.exact_multipliers.us_per_node": 1e6 * ratio(dur[em].sum(), a["nodes"][em].sum()),
        "kernels.kernel_jets.calls": kj.sum() / passes,
        "kernels.kernel_jets.s": dur[kj].sum() / passes,
        "kernels.kernel_jets.us_per_node": 1e6 * ratio(dur[kj].sum(), a["nodes"][kj].sum()),
        "profiles.profile_pair.calls": pp.sum() / passes,
        "profiles.profile_pair.s": dur[pp].sum() / passes,
        "profiles.profile_pair.self_s": self_t[pp].sum() / passes,
        "profiles.kernel_jets_per_pair": ratio(kj_in_pp.sum(), pairs_with_jets),
        "jet2.mul.calls": mul_total / passes,
        "jet2.mul_per_kernel_jets": ratio(mul_in_kj, kj.sum()),
        "quadrature.l2_radial.calls": l2.sum() / passes,
        "quadrature.integrand.calls": integ.sum() / passes,
        "quadrature.integrand.nodes": a["nodes"][integ].sum() / passes,
        "quadrature.nodes_per_call": ratio(a["nodes"][integ].sum(), integ.sum()),
        "quadrature.calls_per_norm": ratio(integ.sum(), l2.sum()),
        "quadrature.self_s": self_t[l2].sum() / passes,
        "experiments.error_curve.calls": mask("experiments.error_curve").sum() / passes,
        "experiments.error_curve.s": dur[mask("experiments.error_curve")].sum() / passes,
        "experiments.high_freq_decay_check.s": dur[mask("experiments.high_freq_decay_check")].sum() / passes,
        "experiments.integrand.self_s": self_t[integ].sum() / passes,
    }
    suite_self = 0.0
    for suite in suites:
        m = mask(SUITE_PREFIX + suite)
        out[f"{SUITE_PREFIX}{suite}.s"] = dur[m].sum() / passes
        suite_self += self_t[m].sum()
    out["acceptance.self_s"] = suite_self / passes
    fit = mask("fitting")
    out["fitting.calls"] = fit.sum() / passes
    out["fitting.s"] = dur[fit].sum() / passes
    out["cli.self_s"] = self_t[mask(CLI)].sum() / passes
    return {key: float(value) for key, value in out.items()}
