"""Command line front end: validate / rates / goldens / curve / verify.

Each flag is declared once in FLAGS, and each subcommand registers only the
flags it reads (COMMANDS); the flag types hold the checks.  A JSON config file
(--config) holds the subcommand's flags by name (t_min for --t-min); its
entries are parsed as flags placed before the command-line ones, which win.
Reports are printed as text; with --out, JSON (and CSV for curves) is written
alongside, every float with 17 significant digits so reruns are byte-identical.
This module owns every report's layout: the lab modules compute, and each
parameter report here opens with its schema version and parameters (_report).

Exit codes: 0 ok, 1 failed checks, 2 bad configuration, 3 computation error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .acceptance import GOLDEN_RTOL, SUITES, AcceptanceLab, golden_comparison
from .experiments import (
    DATA_KINDS,
    ErrorCurve,
    error_curve,
    fit_slope,
    spectral_data,
    tail_window,
)
from .fitting import DegenerateFit, FitResult, geometric_grid
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
from .profiles import MAX_PROFILE_ORDER, check_order

EXIT_OK = 0
EXIT_SUITE = 1
EXIT_CONFIG = 2
EXIT_COMPUTE = 3

# glibc's mallopt parameter numbers for M_TOP_PAD and M_MMAP_THRESHOLD
M_TOP_PAD, M_MMAP_THRESHOLD = -2, -3
# glibc hands the heap top back to the kernel once 128 KiB lie free above it,
# so every integrand call faulted its whole working set in again; 16 MiB of
# pad keeps a 7,680-node call's arrays mapped from one call to the next.  The
# pad comes with a heap extension, and an array of 128 KiB or more that the
# heap top cannot hold is mapped on its own instead, then faulted in afresh
# on every allocation; below the raised threshold the heap extends
HEAP_TOP_PAD = 16 << 20


class ConfigError(Exception):
    """Bad flags or config file; maps to exit code 2."""


class SuiteFailure(Exception):
    """One or more requested checks failed; maps to exit code 1."""


# ---------------------------------------------------------------------------
# reports: deterministic JSON and CSV with 17 significant digits
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
        return _floats17([float(obj)])[0]
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        if type(obj) is list and all(type(v) is float for v in obj):
            # a list of Python floats, as `.tolist()` gives: rendered in one pass
            items = _floats17(obj)
        else:
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
    raise ValueError(f"cannot serialize {type(obj).__name__} to JSON")


def _floats17(values: list[float]) -> list[str]:
    """Each float with 17 significant digits; a non-finite one raises ValueError."""
    if not all(map(math.isfinite, values)):
        bad = next(value for value in values if not math.isfinite(value))
        raise ValueError(f"non-finite number in report: {bad!r}")
    texts = [format(value, ".17g") for value in values]
    # an integral float keeps a fraction, so a JSON reader gets a float back
    return [text if "." in text or "e" in text else text + ".0" for text in texts]


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_json(out_dir: str | None, name: str, payload: dict) -> None:
    if out_dir is None:
        return
    _write_text(Path(out_dir) / name, dumps17(payload) + "\n")


def params_dict(p: ModelParams) -> dict:
    """The parameter tuple under the names the reports use."""
    return {"dim": p.n, "sigma": p.sigma, "sigma1": p.sigma1, "sigma2": p.sigma2, "s": p.s}


def _report(p: ModelParams, **fields) -> dict:
    """A parameter report: schema version and parameters, then the fields in order."""
    return {"schema_version": 1, "params": params_dict(p), **fields}


def curve_csv(curve: ErrorCurve, fit: FitResult | None = None) -> str:
    """Render a curve (and optional fit) as CSV with commented header metadata."""
    meta: list[tuple[str, object]] = list(params_dict(curve.params).items())
    meta += [
        ("case", curve.case.value),
        ("k", curve.k),
        ("data", curve.data.label()),
        ("target_rate", f"{curve.target():.17g}"),
        ("cancellation_hits", curve.cancellation_hits),
    ]
    if fit is not None:
        meta.append(("fitted_slope", f"{fit.slope:.17g}"))
    lines = [f"# {key} = {value}" for key, value in meta]
    lines.append("t,E")
    lines += [f"{t:.17g},{v:.17g}" for t, v in zip(curve.times.tolist(), curve.values.tolist())]
    return "\n".join(lines) + "\n"


def fit_json_dict(fit: FitResult) -> dict:
    return {"slope": fit.slope, "target": fit.target, "gap": fit.gap, "residual": fit.max_residual}


def curve_json_dict(curve: ErrorCurve, fit: FitResult | None = None) -> dict:
    """Render a curve (and optional fit) as a JSON-ready parameter report."""
    out = _report(
        curve.params,
        case=curve.case.value,
        k=curve.k,
        data=curve.data.label(),
        target_rate=curve.target(),
        cancellation_hits=curve.cancellation_hits,
        times=curve.times.tolist(),
        values=curve.values.tolist(),
    )
    if fit is not None:
        out["fit"] = fit_json_dict(fit)
    return out


# ---------------------------------------------------------------------------
# flag values
# ---------------------------------------------------------------------------


def _number(convert, accept=lambda value: True, wanted: str = "a finite number"):
    """A flag type: `convert` the text, then refuse non-finite values and those not accepted."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(f"need {wanted}, got {text!r}")
        return value

    return parse


_real = _number(float)
_positive = _number(float, lambda value: value > 0.0, "a positive finite number")
_per_decade = _number(int, lambda value: value >= 1, "an integer >= 1")


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}: {exc}") from None
    if not orders:
        raise argparse.ArgumentTypeError("order list is empty")
    if any(not 0 <= k <= MAX_PROFILE_ORDER for k in orders):
        raise argparse.ArgumentTypeError(f"orders must lie in [0, {MAX_PROFILE_ORDER}], got {text}")
    if len(set(orders)) != len(orders):
        raise argparse.ArgumentTypeError(f"profile orders must not repeat, got {text}")
    return orders


def _parse_suites(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip() != "")
    if not names:
        raise argparse.ArgumentTypeError("suite list is empty")
    unknown = sorted(set(names) - set(SUITES))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown suites: {', '.join(unknown)}; available: {', '.join(SUITES)}"
        )
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"suite names must not repeat, got {text}")
    return names


def _data_kind(text: str) -> str:
    if text not in DATA_KINDS:
        raise argparse.ArgumentTypeError(f"must be one of {', '.join(DATA_KINDS)}, got {text!r}")
    return text


# option name (t_min for --t-min): (type, default, help)
FLAGS = {
    "dim": (int, 3, "space dimension n"),
    "sigma": (_real, 1.0, "restoring exponent sigma"),
    "sigma1": (_real, 0.25, "weak damping exponent sigma1"),
    "sigma2": (_real, 0.75, "strong damping exponent sigma2"),
    "s": (_real, 0.0, "radial weight power in the error norm"),
    "k": (_parse_orders, (1,), "profile orders, comma separated (e.g. 0,1,2)"),
    "data": (_data_kind, "gaussian", f"spectral data kind: {', '.join(DATA_KINDS)}"),
    "t_min": (_positive, 10.0, "first sample time"),
    "t_max": (_positive, 1e4, "last sample time"),
    "per_decade": (_per_decade, 25, "time samples per decade"),
    "quad_tol": (_positive, 1e-6, "quadrature tolerance"),
    "suites": (_parse_suites, None, f"comma separated suite names (default: {', '.join(SUITES)})"),
    "out": (str, None, "directory for machine-readable reports"),
}
# a config file gives these as JSON strings, every other flag as JSON numbers
_TEXT_FLAGS = frozenset({"data", "suites", "out"})


def _config_argv(path: str, names) -> list[str]:
    """The entries of a JSON config file as `--name=value` arguments.

    A value is written as on the command line: a number, or a string for the
    text flags; a list stands for its items joined by commas.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise ConfigError(f"config {path} has unknown keys: {', '.join(unknown)}")
    argv = []
    for name, value in raw.items():
        items = value if isinstance(value, list) else [value]
        text = name in _TEXT_FLAGS
        kind = str if text else (int, float)
        if any(isinstance(item, bool) or not isinstance(item, kind) for item in items):
            wanted = "a string" if text else "a number"
            raise ConfigError(f"config {path}: {name} takes {wanted} or a list, got {value!r}")
        texts = [item if isinstance(item, str) else repr(item) for item in items]
        argv.append(f"--{name.replace('_', '-')}={','.join(texts)}")
    return argv


def _model(cfg: argparse.Namespace) -> ModelParams:
    return ModelParams(cfg.dim, cfg.sigma, cfg.sigma1, cfg.sigma2, cfg.s)


def _params(cfg: argparse.Namespace, orders=()) -> ModelParams:
    p = _model(cfg)
    try:
        validate(p, case_for(p))
        for k in orders:
            check_order(p, k)
    except ModelError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from None
    return p


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(cfg: argparse.Namespace) -> int:
    p = _model(cfg)
    print(
        f"configuration: dim={p.n} sigma={p.sigma:g} sigma1={p.sigma1:g} "
        f"sigma2={p.sigma2:g} s={p.s:g}"
    )
    try:
        case = case_for(p)
        validate(p, case)
    except ModelError as exc:
        print(f"valid: no ({exc})")
        _write_json(cfg.out, "validate.json", _report(p, valid=False, error=str(exc)))
        return EXIT_CONFIG

    band = oscillation_band(p)
    report = _report(
        p,
        valid=True,
        case=case.value,
        delta=delta(p),
        rate_step=rate_step(p),
        eps_star=eps_star(p),
        oscillation_band=list(band) if band else None,
    )
    print(f"case: {case.value}")
    print("valid: yes")
    print(f"delta = {report['delta']:.17g}")
    print(f"rate step per order = {report['rate_step']:.17g}")
    print(f"eps_star = {report['eps_star']:.17g}")
    if band is None:
        print("oscillation band: none")
    else:
        print(f"oscillation band: [{band[0]:.17g}, {band[1]:.17g}]")
    _write_json(cfg.out, "validate.json", report)
    return EXIT_OK


def cmd_rates(cfg: argparse.Namespace) -> int:
    p = _params(cfg)
    case = case_for(p)
    rows = [{"k": k, "exponent": error_exponent(p, k)} for k in cfg.k]
    print(f"error decay exponents (case {case.value}):")
    for row in rows:
        print(f"  k={row['k']}  {row['exponent']:.17g}")
    _write_json(cfg.out, "rates.json", _report(p, case=case.value, rates=rows))
    return EXIT_OK


def cmd_goldens(cfg: argparse.Namespace) -> int:
    p = _params(cfg)
    bad = [k for k in cfg.k if k not in (1, 2)]
    if bad:
        raise ConfigError(f"goldens are catalogued for k in {{1, 2}}, got {bad}")
    rows = []
    all_ok = True
    for k in cfg.k:
        for comp, (gold, max_gap) in zip(("position", "velocity"), golden_comparison(p, k)):
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
        _report(p, case=case_for(p).value, rtol=GOLDEN_RTOL, comparisons=rows, all_passed=all_ok),
    )
    if not all_ok:
        raise SuiteFailure("golden comparison failed")
    return EXIT_OK


def cmd_curve(cfg: argparse.Namespace) -> int:
    if not cfg.t_min < cfg.t_max:
        raise ConfigError(f"need t_min < t_max, got {cfg.t_min}, {cfg.t_max}")
    p = _params(cfg, cfg.k)
    data = spectral_data(cfg.data)
    t_grid = geometric_grid(cfg.t_min, cfg.t_max, cfg.per_decade)
    for k in cfg.k:
        curve = error_curve(p, k, data, t_grid=t_grid, quad_tol=cfg.quad_tol)
        try:
            # the fit window is [FIT_T_MIN, --t-max]
            fit = fit_slope(curve, tail_window(curve, cfg.t_max))
        except DegenerateFit as exc:
            fit = None
            print(f"k={k}: {curve.times.size} points; fit skipped ({exc})")
        else:
            print(
                f"k={k}: fitted slope {fit.slope:.6f}, target {fit.target:.6f}, "
                f"gap {fit.gap:.6f} ({curve.times.size} points)"
            )
        if cfg.out is not None:
            stem = f"curve_{curve.case.value}_k{k}_{cfg.data}"
            _write_text(Path(cfg.out) / f"{stem}.csv", curve_csv(curve, fit))
            _write_json(cfg.out, f"{stem}.json", curve_json_dict(curve, fit))
            print(f"wrote {stem}.csv")
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> int:
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
                    "details": r.details,
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

_MODEL_FLAGS = ("dim", "sigma", "sigma1", "sigma2", "s")

# subcommand: (handler, help, the FLAGS it reads besides --config and --out)
COMMANDS = {
    "validate": (cmd_validate, "check a parameter set", _MODEL_FLAGS),
    "rates": (cmd_rates, "print predicted decay exponents", (*_MODEL_FLAGS, "k")),
    "goldens": (cmd_goldens, "compare profiles to the closed-form catalog", (*_MODEL_FLAGS, "k")),
    "curve": (
        cmd_curve,
        "sample and fit an error curve",
        (*_MODEL_FLAGS, "k", "data", "t_min", "t_max", "per_decade", "quad_tol"),
    ),
    "verify": (cmd_verify, "run acceptance suites", ("quad_tol", "suites")),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ConfigError instead of exiting on bad input."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing does not change the parser
    # allow_abbrev=False: a prefix of a flag is not an alias for it
    parser = _Parser(
        prog="sigmadamp",
        description="Decay-rate toolkit for doubly damped sigma-evolution modes.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, names) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text, allow_abbrev=False)
        cmd.set_defaults(func=func)
        cmd.add_argument("--config", help="JSON config file; flags override its values")
        for name in (*names, "out"):
            kind, default, flag_help = FLAGS[name]
            cmd.add_argument("--" + name.replace("_", "-"), type=kind, default=default, help=flag_help)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv; a config file's entries are parsed ahead of the flags, which win."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    names = (*COMMANDS[args.command][2], "out")
    at = argv.index(args.command) + 1
    return parser.parse_args([*argv[:at], *_config_argv(args.config, names), *argv[at:]])


@functools.cache
def _pad_heap_top() -> None:
    """Keep HEAP_TOP_PAD bytes above the heap top, and arrays smaller than that on the heap; no-op without mallopt."""
    # the process's own symbols: libc's on Linux, none named mallopt on macOS or Windows
    mallopt = getattr(ctypes.pythonapi, "mallopt", None)
    if mallopt is not None:
        mallopt(M_TOP_PAD, HEAP_TOP_PAD)
        mallopt(M_MMAP_THRESHOLD, HEAP_TOP_PAD)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as `warning: <class>: <message>`, without the path and line it came from."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    _pad_heap_top()
    argv = sys.argv[1:] if argv is None else list(argv)
    # the source location of a warning depends on where the package lives,
    # and stderr must not
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = _parse(argv)
            return args.func(args)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        except ConfigError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except SuiteFailure as exc:
            print(f"failure: {exc}", file=sys.stderr)
            return EXIT_SUITE
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            print(f"computation error: {exc}", file=sys.stderr)
            return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
