"""The benchmark's workloads and the correctness check of their outputs.

Each workload is a list of `sigmadamp` CLI calls built from the seed alone;
the program receives only the generated flags.  `verify` stresses all three
layers, `curve_k3` the jets (order 3 runs them at order 2) and `sweep_k0`
the multipliers and quadrature with no jets at all; README.md gives the
reasons and what each layer metric should move.  The sweep draws from a
fixed pool (POOL_SEED) so that every seed's calls have recorded references,
and draws evenly from each (damping case, data kind) stratum so that the
cost of a pass stays steady across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify", "curve_k3", "sweep_k0")

VERIFY_SUITES = (
    "rates_fractional",
    "closed_forms",
    "jet_oracle",
    "cutoff_scaling",
    "high_frequency",
    "ode_residual",
)
# the documented red gate: k=2 slope gap 0.0510 against a tolerance of 0.05
EXPECTED_FAILING = ("rates_fractional",)
EXPECTED_K2_GAP = "0.0510"

CURVE_K3 = (
    "curve", "--dim", "3", "--sigma", "1", "--sigma1", "0.25", "--sigma2", "0.75",
    "--k", "3", "--t-min", "100",
)

POOL_SEED = 20261017
POOL_PER_STRATUM = 6
DRAWS_PER_STRATUM = 4

# outputs may move at the ulp level when summation order changes; these catch
# anything beyond the quadrature's own tolerance
VALUE_RTOL = 1e-6
SLOPE_ATOL = 1e-6
TIMES_RTOL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    expect_rc: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def sweep_pool() -> list[tuple[str, ...]]:
    """The fixed pool of k = 0 curve calls, grouped by stratum."""
    rng = random.Random(POOL_SEED)
    pool = []
    for frictional in (True, False):
        for data in ("gaussian", "moment_free"):
            for i in range(POOL_PER_STRATUM):
                dim = 1 + i % 3
                sigma = round(rng.uniform(1.0, 1.5), 3)
                if frictional:
                    sigma1 = 0.0
                else:
                    # dim > 4 sigma1 and sigma1 < sigma/2
                    sigma1 = round(min(0.5 * sigma, 0.25 * dim) * rng.uniform(0.1, 0.9), 4)
                # one draw per sixth of (sigma/2, sigma], so each stratum spans it
                frac = 0.02 + 0.98 * (i + rng.random()) / POOL_PER_STRATUM
                sigma2 = min(sigma, round(0.5 * sigma * (1.0 + frac), 4))
                pool.append(
                    (
                        "curve", "--k", "0", "--dim", str(dim), "--sigma", repr(sigma),
                        "--sigma1", repr(sigma1), "--sigma2", repr(sigma2), "--data", data,
                    )
                )
    return pool


def calls_for(workload: str, seed: int) -> list[Call]:
    """The CLI calls of one pass of the workload; the same seed gives the same calls."""
    if workload == "verify":
        return [Call(("verify", "--suites", ",".join(VERIFY_SUITES)), 1)]
    if workload == "curve_k3":
        return [Call(CURVE_K3, 0)]
    if workload == "sweep_k0":
        rng = random.Random(seed)
        pool = sweep_pool()
        chosen = []
        for lo in range(0, len(pool), POOL_PER_STRATUM):
            chosen += rng.sample(pool[lo : lo + POOL_PER_STRATUM], DRAWS_PER_STRATUM)
        rng.shuffle(chosen)
        return [Call(argv, 0) for argv in chosen]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# reading and checking the reports a call wrote
# ---------------------------------------------------------------------------


class BadReport(ValueError):
    """A report is missing, unreadable or holds a non-finite number."""


def _reject_constant(token: str):
    raise BadReport(f"non-finite number {token} in report")


def _finite_floats(obj) -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        raise BadReport(f"non-finite number {obj!r} in report")
    if isinstance(obj, dict):
        for value in obj.values():
            _finite_floats(value)
    elif isinstance(obj, list):
        for value in obj:
            _finite_floats(value)


def read_reports(out_dir: Path) -> tuple[str, dict]:
    """Digest of every report file, and the parsed JSON reports by file name.

    CSV rows must parse as finite numbers; JSON must hold finite numbers only.
    """
    if not out_dir.is_dir():
        raise BadReport("no report directory written")
    digest = hashlib.sha256()
    reports = {}
    for path in sorted(out_dir.iterdir()):
        raw = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + raw + b"\0")
        text = raw.decode("utf-8")
        if path.suffix == ".json":
            obj = json.loads(text, parse_constant=_reject_constant)
            _finite_floats(obj)
            reports[path.name] = obj
        elif path.suffix == ".csv":
            rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
            if not rows or rows[0] != "t,E" or len(rows) < 2:
                raise BadReport(f"{path.name}: no samples")
            for row in rows[1:]:
                if not all(math.isfinite(float(v)) for v in row.split(",")):
                    raise BadReport(f"{path.name}: non-finite sample {row!r}")
    if not reports:
        raise BadReport("no JSON report written")
    return digest.hexdigest(), reports


@dataclass
class Outcome:
    """Verdict on one CLI call; a call that fails any check is a failed operation."""

    key: str
    problems: list[str]
    digest: str | None = None
    max_slope_dev: float = 0.0
    max_value_rdev: float = 0.0
    values_compared: int = 0
    suites_failed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _compare(got, ref, key: str, out: Outcome, where: str) -> None:
    """Walk a report against its reference: structure and verdicts must match,
    E(t) samples and fitted slopes must agree within tolerance."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            out.problems.append(f"{where}: keys differ from the reference")
            return
        for name in ref:
            _compare(got[name], ref[name], name, out, f"{where}.{name}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            out.problems.append(f"{where}: length differs from the reference")
            return
        if key == "values":
            for g, r in zip(got, ref):
                rdev = abs(g - r) / abs(r) if r else abs(g)
                out.max_value_rdev = max(out.max_value_rdev, rdev)
            out.values_compared += len(ref)
        elif key == "times":
            if any(abs(g - r) > TIMES_RTOL * abs(r) for g, r in zip(got, ref)):
                out.problems.append(f"{where}: sample times differ from the reference")
        else:
            for i, (g, r) in enumerate(zip(got, ref)):
                _compare(g, r, key, out, f"{where}[{i}]")
    elif isinstance(ref, bool):
        if got is not ref:
            out.problems.append(f"{where}: verdict {got} differs from the reference {ref}")
    elif isinstance(ref, float) and (key.startswith("slope") or key == "rate"):
        # power-law slopes, and the exponential decay rates of high_frequency
        out.max_slope_dev = max(out.max_slope_dev, abs(got - ref))


def _check_verdicts(report: dict, out: Outcome) -> None:
    failing = tuple(r["name"] for r in report["results"] if not r["passed"])
    out.suites_failed = len(failing)
    if failing != EXPECTED_FAILING:
        out.problems.append(f"failing suites {failing}, expected {EXPECTED_FAILING}")
    for result in report["results"]:
        if result["name"] == "rates_fractional":
            gaps = {row["k"]: row["gap"] for row in result["details"]["fits"]}
            if f"{gaps.get(2, math.nan):.4f}" != EXPECTED_K2_GAP:
                out.problems.append(f"rates_fractional k=2 gap {gaps.get(2)}, expected {EXPECTED_K2_GAP}")


def check_call(call: Call, rc, error: str | None, out_dir: Path, reference: dict) -> Outcome:
    out = Outcome(call.key, [])
    if error is not None:
        out.problems.append(f"raised {error}")
        return out
    if rc != call.expect_rc:
        out.problems.append(f"exit code {rc}, expected {call.expect_rc}")
    try:
        out.digest, reports = read_reports(out_dir)
    except (BadReport, OSError, ValueError) as exc:
        out.problems.append(str(exc))
        return out
    ref = reference.get(call.key)
    if ref is None:
        out.problems.append("no reference output recorded for this call")
        return out
    if set(reports) != set(ref["reports"]):
        out.problems.append(f"report files {sorted(reports)} differ from the reference")
        return out
    try:
        if "verify.json" in reports:
            _check_verdicts(reports["verify.json"], out)
        for name, ref_report in ref["reports"].items():
            _compare(reports[name], ref_report, "", out, name)
    except (KeyError, TypeError) as exc:
        out.problems.append(f"report layout differs from the reference: {exc!r}")
        return out
    if out.max_value_rdev > VALUE_RTOL:
        out.problems.append(f"E(t) deviates {out.max_value_rdev:.3g} from the reference (tol {VALUE_RTOL:g})")
    if out.max_slope_dev > SLOPE_ATOL:
        out.problems.append(f"fitted slope deviates {out.max_slope_dev:.3g} from the reference (tol {SLOPE_ATOL:g})")
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["calls"]
