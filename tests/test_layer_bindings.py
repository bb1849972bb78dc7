"""The benchmark's tracer reads each layer's radius argument by position.

`perfbench/spans.py` lists, per traced layer function, the position of the
argument that holds the radial nodes, and counts its size.  A signature
change that moves `r` would make traced runs count the wrong argument, and a
batched call that passes `r` unbroadcast would undercount its nodes; these
tests catch both without running the benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from sigmadamp.acceptance import (
    CONFIG_FRACTIONAL,
    CONFIG_FRICTIONAL,
    AcceptanceLab,
    residual_grid,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer_bindings():
    return _spans().LAYER_BINDINGS


def test_radius_position_names_r():
    checked = 0
    for module, attr, name, nodes_arg in _layer_bindings():
        if nodes_arg is None:
            continue
        func = getattr(importlib.import_module(module), attr)
        params = list(inspect.signature(func).parameters)
        assert params[nodes_arg : nodes_arg + 1] == ["r"], (name, params)
        checked += 1
    assert checked > 0


def test_batched_suites_count_every_node_they_evaluate():
    # ode_residual evaluates five stencil shots per (t, r) node in one call,
    # closed_forms three times per radius in one profile_pair call per (p, k)
    lab = AcceptanceLab()
    with _spans().Tracer() as tracer:
        lab.check_ode_residual()
        lab.check_closed_forms()
    a = tracer.arrays()

    def nodes(name):
        return int(a["nodes"][a["name_id"] == tracer.names.index(name)].sum())

    grids = [residual_grid(p) for p in (CONFIG_FRACTIONAL, CONFIG_FRICTIONAL)]
    shots = sum(5 * r.size * t.size for r, t in grids)
    assert nodes("kernels.exact_multipliers") == shots
    # two configurations, k = 1 and 2, three times and 20 radii each
    assert nodes("profiles.profile_pair") == 2 * 2 * 3 * 20
    assert np.count_nonzero(a["name_id"] == tracer.names.index("profiles.profile_pair")) == 4
