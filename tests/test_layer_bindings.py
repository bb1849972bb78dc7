"""The benchmark's tracer reads each layer's radius argument by position.

`perfbench/spans.py` lists, per traced layer function, the position of the
argument that holds the radial nodes.  A signature change that moves `r`
would make traced runs count the wrong argument; this test catches it
without running the benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_BINDINGS


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
