"""Command line front end: validate / rates / goldens / curve / verify.

All subcommands accept the same parameter flags plus an optional JSON config
file (flags override file values; unknown file keys are rejected).  Reports
are printed as human-readable text; with --out, machine-readable JSON (and
CSV for curves) is written alongside, every number carrying 17 significant
digits so repeated runs are byte-identical.

Exit codes: 0 ok, 1 failed checks, 2 bad configuration, 3 computation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .acceptance import GOLDEN_RTOL, SUITES, AcceptanceLab, golden_comparison
from .experiments import (
    DATA_PRESETS,
    curve_csv,
    curve_json_dict,
    error_curve,
    fit_slope,
    params_dict,
    tail_window,
)
from .fitting import DegenerateFit, geometric_grid
from .model import (
    ModelParams,
    ModelError,
    case_for,
    delta,
    eps_star,
    error_exponent,
    oscillation_band,
    rate_step,
    validate,
)

EXIT_OK = 0
EXIT_SUITE = 1
EXIT_CONFIG = 2
EXIT_COMPUTE = 3


class ConfigError(Exception):
    """Bad flags or config file; maps to exit code 2."""


class ComputationError(Exception):
    """A computation could not be completed; maps to exit code 3."""


class SuiteFailure(Exception):
    """One or more requested checks failed; maps to exit code 1."""


@dataclass
class RunConfig:
    dim: int = 3
    sigma: float = 1.0
    sigma1: float = 0.25
    sigma2: float = 0.75
    s: float = 0.0
    k: tuple[int, ...] = (1,)
    data: str = "gaussian"
    t_min: float = 10.0
    t_max: float = 1e4
    per_decade: int = 25
    quad_tol: float = 1e-6
    suites: tuple[str, ...] | None = None
    out: str | None = None


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


# ---------------------------------------------------------------------------
# deterministic JSON with 17 significant digits
# ---------------------------------------------------------------------------


def dumps17(obj, indent: int = 0) -> str:
    """Serialize to JSON, formatting every float with 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            raise ComputationError(f"non-finite number in report: {value!r}")
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = [dumps17(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(key))}: {dumps17(value, indent + 1)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise ComputationError(f"cannot serialize {type(obj).__name__} to JSON")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_json(out_dir: str | None, name: str, payload: dict) -> None:
    if out_dir is None:
        return
    _write_text(Path(out_dir) / name, dumps17(payload) + "\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}: {exc}") from None
    if not orders:
        raise argparse.ArgumentTypeError("order list is empty")
    return orders


def _parse_suites(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip() != "")
    if not names:
        raise argparse.ArgumentTypeError("suite list is empty")
    return names


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = sorted(set(raw) - _CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"config {path} has unknown keys: {', '.join(unknown)}")
    return raw


def _normalize(values: dict) -> dict:
    out = dict(values)
    if "k" in out:
        k = out["k"]
        if isinstance(k, str):
            try:
                out["k"] = _parse_orders(k)
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(str(exc)) from None
        else:
            orders = k if isinstance(k, (list, tuple)) else (k,)
            if not orders or any(isinstance(v, bool) or not isinstance(v, int) for v in orders):
                raise ConfigError(f"profile orders must be a nonempty list of integers, got {k!r}")
            out["k"] = tuple(orders)
    if "suites" in out and out["suites"] is not None:
        suites = out["suites"]
        if isinstance(suites, str):
            out["suites"] = _parse_suites(suites)
        elif isinstance(suites, (list, tuple)):
            out["suites"] = tuple(str(v) for v in suites)
        else:
            raise ConfigError(f"bad value for suites: {suites!r}")
    return out


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_normalize(_load_config_file(args.config)))
    flags = {
        name: getattr(args, name)
        for name in _CONFIG_FIELDS
        if getattr(args, name, None) is not None
    }
    values.update(_normalize(flags))
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(f"bad configuration: {exc}") from None

    if not isinstance(cfg.dim, int):
        raise ConfigError(f"dim must be an integer, got {cfg.dim!r}")
    if cfg.data not in DATA_PRESETS:
        raise ConfigError(f"data must be one of {tuple(DATA_PRESETS)}, got {cfg.data!r}")
    if any(k < 0 or k > 3 for k in cfg.k):
        raise ConfigError(f"profile orders must lie in [0, 3], got {cfg.k}")
    if len(set(cfg.k)) != len(cfg.k):
        raise ConfigError(f"profile orders must not repeat, got {cfg.k}")
    if not (0.0 < cfg.t_min < cfg.t_max < math.inf):
        raise ConfigError(f"need 0 < t_min < t_max < inf, got {cfg.t_min}, {cfg.t_max}")
    if cfg.per_decade < 1:
        raise ConfigError(f"per_decade must be >= 1, got {cfg.per_decade}")
    if not (0.0 < cfg.quad_tol < math.inf):
        raise ConfigError(f"quad_tol must be positive and finite, got {cfg.quad_tol}")
    if cfg.suites is not None:
        unknown = sorted(set(cfg.suites) - set(SUITES))
        if unknown:
            raise ConfigError(
                f"unknown suites: {', '.join(unknown)}; available: {', '.join(SUITES)}"
            )
    return cfg


def _params(cfg: RunConfig) -> tuple[ModelParams, object]:
    p = ModelParams(n=cfg.dim, sigma=cfg.sigma, sigma1=cfg.sigma1, sigma2=cfg.sigma2, s=cfg.s)
    try:
        case = case_for(p)
        validate(p, case)
    except ModelError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from None
    return p, case


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(cfg: RunConfig) -> int:
    p = ModelParams(n=cfg.dim, sigma=cfg.sigma, sigma1=cfg.sigma1, sigma2=cfg.sigma2, s=cfg.s)
    print(
        f"configuration: dim={p.n} sigma={p.sigma:g} sigma1={p.sigma1:g} "
        f"sigma2={p.sigma2:g} s={p.s:g}"
    )
    try:
        case = case_for(p)
        validate(p, case)
    except ModelError as exc:
        print(f"valid: no ({exc})")
        _write_json(
            cfg.out,
            "validate.json",
            {"schema_version": 1, "params": params_dict(p), "valid": False, "error": str(exc)},
        )
        return EXIT_CONFIG

    band = oscillation_band(p)
    report = {
        "schema_version": 1,
        "params": params_dict(p),
        "valid": True,
        "case": case.value,
        "delta": delta(p),
        "rate_step": rate_step(p, case),
        "eps_star": eps_star(p),
        "oscillation_band": list(band) if band else None,
    }
    print(f"case: {case.value}")
    print("valid: yes")
    print(f"delta = {delta(p):.17g}")
    print(f"rate step per order = {rate_step(p, case):.17g}")
    print(f"eps_star = {eps_star(p):.17g}")
    if band is None:
        print("oscillation band: none")
    else:
        print(f"oscillation band: [{band[0]:.17g}, {band[1]:.17g}]")
    _write_json(cfg.out, "validate.json", report)
    return EXIT_OK


def cmd_rates(cfg: RunConfig) -> int:
    p, case = _params(cfg)
    rows = [{"k": k, "exponent": error_exponent(p, k, case)} for k in cfg.k]
    print(f"error decay exponents (case {case.value}):")
    for row in rows:
        print(f"  k={row['k']}  {row['exponent']:.17g}")
    _write_json(
        cfg.out,
        "rates.json",
        {"schema_version": 1, "params": params_dict(p), "case": case.value, "rates": rows},
    )
    return EXIT_OK


def cmd_goldens(cfg: RunConfig) -> int:
    p, case = _params(cfg)
    bad = [k for k in cfg.k if k not in (1, 2)]
    if bad:
        raise ConfigError(f"goldens are catalogued for k in {{1, 2}}, got {bad}")
    rows = []
    all_ok = True
    for k in cfg.k:
        for comp, (gold, max_gap) in zip(("position", "velocity"), golden_comparison(p, case, k)):
            ok = max_gap <= GOLDEN_RTOL
            all_ok = all_ok and ok
            corrected = list(gold.corrected_indices())
            rows.append(
                {
                    "k": k,
                    "component": comp,
                    "max_scaled_gap": max_gap,
                    "corrected_terms": corrected,
                    "passed": ok,
                }
            )
            print(
                f"k={k} {comp}: max scaled gap {max_gap:.3e} (tol {GOLDEN_RTOL:g}) "
                f"corrected={corrected} {'PASS' if ok else 'FAIL'}"
            )
    _write_json(
        cfg.out,
        "goldens.json",
        {
            "schema_version": 1,
            "params": params_dict(p),
            "case": case.value,
            "rtol": GOLDEN_RTOL,
            "comparisons": rows,
            "all_passed": all_ok,
        },
    )
    if not all_ok:
        raise SuiteFailure("golden comparison failed")
    return EXIT_OK


def cmd_curve(cfg: RunConfig) -> int:
    p, case = _params(cfg)
    data = DATA_PRESETS[cfg.data]()
    t_grid = geometric_grid(cfg.t_min, cfg.t_max, cfg.per_decade)
    for k in cfg.k:
        curve = error_curve(p, case, k, data, t_grid=t_grid, quad_tol=cfg.quad_tol)
        try:
            window = tail_window(curve, 100.0, cfg.t_max)
            fit = fit_slope(curve, window)
        except DegenerateFit:
            fit = None
        if fit is None:
            print(f"k={k}: {curve.times.size} points; fit skipped (window too small)")
        else:
            print(
                f"k={k}: fitted slope {fit.slope:.6f}, target {fit.target:.6f}, "
                f"gap {fit.gap:.6f} ({curve.times.size} points)"
            )
        if cfg.out is not None:
            stem = f"curve_{case.value}_k{k}_{cfg.data}"
            _write_text(Path(cfg.out) / f"{stem}.csv", curve_csv(curve, fit))
            _write_json(cfg.out, f"{stem}.json", curve_json_dict(curve, fit))
            print(f"wrote {stem}.csv")
    return EXIT_OK


# wall-clock readings vary run to run and would break byte-identical reports
_VOLATILE_DETAIL_KEYS = frozenset({"elapsed_seconds"})


def _stable_details(details: dict) -> dict:
    return {k: v for k, v in details.items() if k not in _VOLATILE_DETAIL_KEYS}


def cmd_verify(cfg: RunConfig) -> int:
    lab = AcceptanceLab(quad_tol=cfg.quad_tol)
    results = lab.run(cfg.suites)
    for result in results:
        print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.message}")
    passed = sum(1 for r in results if r.passed)
    failed = len(results) - passed
    print(f"{passed} passed, {failed} failed")
    _write_json(
        cfg.out,
        "verify.json",
        {
            "schema_version": 1,
            "results": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "message": r.message,
                    "details": _stable_details(r.details),
                }
                for r in results
            ],
            "all_passed": failed == 0,
        },
    )
    if failed:
        raise SuiteFailure(f"{failed} suite(s) failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--dim", type=int, help="space dimension n")
    common.add_argument("--sigma", type=float, help="restoring exponent sigma")
    common.add_argument("--sigma1", type=float, help="weak damping exponent sigma1")
    common.add_argument("--sigma2", type=float, help="strong damping exponent sigma2")
    common.add_argument("--s", type=float, help="radial weight power in the error norm")
    common.add_argument(
        "--k", type=_parse_orders, help="profile orders, comma separated (e.g. 0,1,2)"
    )
    common.add_argument("--data", choices=DATA_PRESETS, help="spectral data preset")
    common.add_argument("--t-min", dest="t_min", type=float, help="first sample time")
    common.add_argument("--t-max", dest="t_max", type=float, help="last sample time")
    common.add_argument(
        "--per-decade", dest="per_decade", type=int, help="time samples per decade"
    )
    common.add_argument("--quad-tol", dest="quad_tol", type=float, help="quadrature tolerance")
    common.add_argument("--out", help="directory for machine-readable reports")

    parser = argparse.ArgumentParser(
        prog="sigmadamp",
        description="Decay-rate toolkit for doubly damped sigma-evolution modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("validate", parents=[common], help="check a parameter set")
    cmd.set_defaults(func=cmd_validate)
    cmd = sub.add_parser("rates", parents=[common], help="print predicted decay exponents")
    cmd.set_defaults(func=cmd_rates)
    cmd = sub.add_parser("goldens", parents=[common], help="compare profiles to the closed-form catalog")
    cmd.set_defaults(func=cmd_goldens)
    cmd = sub.add_parser("curve", parents=[common], help="sample and fit an error curve")
    cmd.set_defaults(func=cmd_curve)
    cmd = sub.add_parser("verify", parents=[common], help="run acceptance suites")
    cmd.add_argument(
        "--suites",
        type=_parse_suites,
        help=f"comma separated suite names (default: all of {', '.join(SUITES)})",
    )
    cmd.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SuiteFailure as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_SUITE
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
