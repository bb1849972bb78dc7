"""End-to-end acceptance suites for the damped-mode package.

Each suite exercises one advertised property of the implementation on two
reference configurations (one per damping case) and reports a CheckResult.
The suites deliberately re-derive their reference values through independent
routes: raw bivariate derivative tables assembled with explicit Leibniz
products and partition sums for the jet oracle, central finite differences
on a plain closed-form evaluator, five-point stencils for the defining ODE,
and closed-form modal sums for the low-order profiles.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .experiments import (
    error_curve,
    fit_slope,
    gaussian_data,
    lower_bound_band,
    high_freq_decay_check,
    order_improvement_from_curves,
    tail_window,
)
from .fitting import geometric_grid
from .jet2 import Jet2, faa_di_bruno_coeff
from .kernels import exact_multipliers, kernel_jets
from .model import ModelParams, RateCase, eps_star, oscillation_band
from .profiles import ModalSum, golden_modal, profile_pair
from .quadrature import scaling_check

CONFIG_FRACTIONAL = ModelParams(n=3, sigma=1.0, sigma1=0.25, sigma2=0.75)
CONFIG_FRICTIONAL = ModelParams(n=1, sigma=1.0, sigma1=0.0, sigma2=0.8)

SUITES = (
    "rates_fractional",
    "rates_frictional",
    "weight_shift",
    "lower_band",
    "closed_forms",
    "jet_oracle",
    "cutoff_scaling",
    "high_frequency",
    "ode_residual",
    "order_improvement",
)

SLOPE_TOL = 0.05
SCALING_TOL = 0.02
GOLDEN_RTOL = 1e-12
ORACLE_RTOL = 1e-10
FD_RTOL = 1e-5
FD_STEP = 1e-4
RESIDUAL_TOL = 1e-6
BAND_RATIO_MAX = 10.0
HIGH_FREQ_RATIO_MAX = 1e-10
RATES_TIME_BUDGET = 120.0

_ORACLE_SEED = 20260821

_KERNEL_NAMES = ("pos_fast", "pos_slow", "vel_slow", "vel_fast")

# corrected catalog entries, by (case, k) -> component -> term indices
_EXPECTED_CORRECTIONS = {
    (RateCase.POSITIVE_SIGMA1, 1): ((1,), ()),
    (RateCase.POSITIVE_SIGMA1, 2): ((6,), ()),
    (RateCase.ZERO_SIGMA1, 1): ((), ()),
    (RateCase.ZERO_SIGMA1, 2): ((), ()),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    message: str
    details: dict


# ---------------------------------------------------------------------------
# raw bivariate derivative tables (independent of the jet arithmetic)
# ---------------------------------------------------------------------------


def _tbl_zero(order: int) -> list[list[float]]:
    return [[0.0] * (order - j + 1) for j in range(order + 1)]


def _tbl_const(value: float, order: int) -> list[list[float]]:
    table = _tbl_zero(order)
    table[0][0] = value
    return table


def _tbl_linear(c0: float, ca: float, cb: float, order: int) -> list[list[float]]:
    table = _tbl_zero(order)
    table[0][0] = c0
    if order >= 1:
        table[1][0] = ca
        table[0][1] = cb
    return table


def _tbl_scale(table, factor: float):
    return [[factor * v for v in row] for row in table]


def _tbl_add(t1, t2):
    return [[v1 + v2 for v1, v2 in zip(r1, r2)] for r1, r2 in zip(t1, t2)]


def _tbl_mul(t1, t2, order: int):
    out = _tbl_zero(order)
    for j in range(order + 1):
        for m in range(order - j + 1):
            acc = 0.0
            for j1 in range(j + 1):
                for m1 in range(m + 1):
                    acc += (
                        math.comb(j, j1)
                        * math.comb(m, m1)
                        * t1[j1][m1]
                        * t2[j - j1][m - m1]
                    )
            out[j][m] = acc
    return out


def _tbl_as_jet(table, order: int) -> Jet2:
    jet = Jet2(order)
    for j in range(order + 1):
        for m in range(order - j + 1):
            jet.coeff[j][m] = table[j][m] / (math.factorial(j) * math.factorial(m))
    return jet


def _tbl_compose(outer_derivs, table, order: int):
    inner = _tbl_as_jet(table, order)
    out = _tbl_zero(order)
    for j in range(order + 1):
        for m in range(order - j + 1):
            out[j][m] = faa_di_bruno_coeff(outer_derivs, inner, j, m)
    return out


def _derivs_recip(center: float, order: int) -> list[float]:
    return [
        (-1.0) ** ell * math.factorial(ell) / center ** (ell + 1)
        for ell in range(order + 1)
    ]


def _derivs_sqrt(center: float, order: int) -> list[float]:
    out = [math.sqrt(center)]
    coeff = 1.0
    for ell in range(1, order + 1):
        coeff *= 0.5 - (ell - 1)
        out.append(coeff * center ** (0.5 - ell))
    return out


def _derivs_exp_scaled(rate0: float, t: float, order: int) -> list[float]:
    base = math.exp(rate0 * t)
    return [t**ell * base for ell in range(order + 1)]


def kernel_tables(p: ModelParams, t: float, r: float, order: int = 4) -> dict[str, list]:
    """Raw derivative tables of the four tagged multipliers at (a, b) = (0, 0).

    Built from scratch with Leibniz products and partition-sum compositions;
    shares no code path with the jet engine beyond the partition enumerator.
    """
    nu = r ** (2.0 * p.sigma1)
    x = r ** (2.0 * (p.sigma2 - p.sigma1))
    w = r ** (2.0 * (p.sigma - 2.0 * p.sigma1))
    mu = nu * w

    g1 = _tbl_compose(_derivs_recip(1.0, order), _tbl_linear(0.0, x, 0.0, order), order)
    g1_sq = _tbl_mul(g1, g1, order)
    inside = _tbl_add(
        _tbl_const(1.0, order),
        _tbl_scale(_tbl_mul(_tbl_linear(0.0, 0.0, 1.0, order), g1_sq, order), -4.0 * w),
    )
    g2 = _tbl_compose(_derivs_sqrt(inside[0][0], order), inside, order)
    g_inv = _tbl_scale(
        _tbl_mul(g1, _tbl_compose(_derivs_recip(g2[0][0], order), g2, order), order),
        1.0 / nu,
    )
    one_plus_g2 = _tbl_add(_tbl_const(1.0, order), g2)
    lam_slow = _tbl_scale(
        _tbl_mul(
            g1,
            _tbl_compose(_derivs_recip(one_plus_g2[0][0], order), one_plus_g2, order),
            order,
        ),
        -2.0 * mu,
    )
    lam_fast = _tbl_scale(
        _tbl_mul(_tbl_linear(1.0, x, 0.0, order), one_plus_g2, order), -0.5 * nu
    )
    exp_slow = _tbl_compose(_derivs_exp_scaled(lam_slow[0][0], t, order), lam_slow, order)
    exp_fast = _tbl_compose(_derivs_exp_scaled(lam_fast[0][0], t, order), lam_fast, order)
    return {
        "pos_fast": _tbl_mul(_tbl_mul(g_inv, lam_slow, order), exp_fast, order),
        "pos_slow": _tbl_mul(_tbl_mul(g_inv, lam_fast, order), exp_slow, order),
        "vel_slow": _tbl_mul(g_inv, exp_slow, order),
        "vel_fast": _tbl_mul(g_inv, exp_fast, order),
    }


def kernel_direct(p: ModelParams, t: float, r: float, a: float, b: float) -> dict[str, float]:
    """Plain closed-form values of the four tagged multipliers at (a, b)."""
    nu = r ** (2.0 * p.sigma1)
    x = r ** (2.0 * (p.sigma2 - p.sigma1))
    w = r ** (2.0 * (p.sigma - 2.0 * p.sigma1))
    mu = nu * w
    g1 = 1.0 / (1.0 + a * x)
    g2 = math.sqrt(1.0 - 4.0 * b * w * g1 * g1)
    big_g = nu * (1.0 + a * x) * g2
    lam_slow = -2.0 * mu * g1 / (1.0 + g2)
    lam_fast = -0.5 * nu * (1.0 + a * x) * (1.0 + g2)
    e_slow = math.exp(lam_slow * t)
    e_fast = math.exp(lam_fast * t)
    return {
        "pos_fast": lam_slow * e_fast / big_g,
        "pos_slow": lam_fast * e_slow / big_g,
        "vel_slow": e_slow / big_g,
        "vel_fast": e_fast / big_g,
    }


def _fd_table(func, h: float) -> dict[tuple[int, int], float]:
    """Central finite differences through second order, mixed included."""
    f = {
        (ia, ib): func(ia * h, ib * h)
        for ia in (-1, 0, 1)
        for ib in (-1, 0, 1)
    }
    return {
        (0, 0): f[(0, 0)],
        (1, 0): (f[(1, 0)] - f[(-1, 0)]) / (2.0 * h),
        (0, 1): (f[(0, 1)] - f[(0, -1)]) / (2.0 * h),
        (2, 0): (f[(1, 0)] - 2.0 * f[(0, 0)] + f[(-1, 0)]) / (h * h),
        (0, 2): (f[(0, 1)] - 2.0 * f[(0, 0)] + f[(0, -1)]) / (h * h),
        (1, 1): (f[(1, 1)] - f[(1, -1)] - f[(-1, 1)] + f[(-1, -1)]) / (4.0 * h * h),
    }


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# closed-form catalog
# ---------------------------------------------------------------------------


def golden_comparison(p: ModelParams, case: RateCase, k: int) -> list[tuple[ModalSum, float]]:
    """(catalog sum, worst scaled gap to the jet profile) per profile component.

    The gap |profile - catalog| / (1 + |catalog|) is maximised over 20
    radii spanning [1e-3, 1] * eps_star and the times 1, 10 and 100.
    """
    r_grid = np.geomspace(1e-3 * eps_star(p), eps_star(p), 20)
    golden = golden_modal(k, case, p)
    gaps = [0.0, 0.0]
    for t in (1.0, 10.0, 100.0):
        for i, prof in enumerate(profile_pair(k, p, case, t, r_grid)):
            ref = golden[i].evaluate(t, r_grid)
            gaps[i] = max(gaps[i], float(np.max(np.abs(prof - ref) / (1.0 + np.abs(ref)))))
    return list(zip(golden, gaps))


# ---------------------------------------------------------------------------
# ODE residual (five-point stencils in time)
# ---------------------------------------------------------------------------


def ode_residual_max(p: ModelParams, r_values, t_values) -> tuple[float, dict]:
    """Largest relative residual of v'' + A v' + S v = 0 over the grid.

    Residuals are scaled by the largest of the three terms, so agreement is
    measured against the dominant balance rather than tiny absolute values.
    """
    r = np.asarray(r_values, dtype=float)
    a_sym = r ** (2.0 * p.sigma1) + r ** (2.0 * p.sigma2)
    s_sym = r ** (2.0 * p.sigma)
    worst = -1.0
    where: dict = {}
    for t in np.asarray(t_values, dtype=float):
        h = 1e-4 * max(1.0, float(t))
        shots = {
            step: exact_multipliers(p, float(t) + step * h, r)
            for step in (-2, -1, 0, 1, 2)
        }
        for name in ("K0", "K1"):
            f = {step: np.asarray(getattr(em, name)) for step, em in shots.items()}
            d1 = (-f[2] + 8.0 * f[1] - 8.0 * f[-1] + f[-2]) / (12.0 * h)
            d2 = (-f[2] + 16.0 * f[1] - 30.0 * f[0] + 16.0 * f[-1] - f[-2]) / (
                12.0 * h * h
            )
            terms = (d2, a_sym * d1, s_sym * f[0])
            num = np.abs(terms[0] + terms[1] + terms[2])
            den = np.maximum.reduce([np.abs(term) for term in terms])
            res = num / np.maximum(den, 1e-300)
            pos = int(np.argmax(res))
            if float(res[pos]) > worst:
                worst = float(res[pos])
                where = {"multiplier": name, "t": float(t), "r": float(r[pos])}
    return worst, where


def residual_grid(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """10 x 10 (r, t) sample grid; two radii are moved inside the band if one exists.

    The radial floor 0.4 keeps the residual denominator max(|f''|, |A f'|, |S f|)
    well above the finite-difference roundoff floor (~4e-8 |f| at step 1e-4).
    Below r ~ 0.1 all three terms shrink like r^(2*sigma) and the quotient
    measures stencil noise, not multiplier error.
    """
    band = oscillation_band(p)
    if band is None:
        r = np.geomspace(0.4, 3.0, 10)
    else:
        lo, hi = band
        inside = np.array([math.sqrt(lo * hi), 0.25 * lo + 0.75 * hi])
        r = np.sort(np.concatenate([np.geomspace(0.4, 3.0, 8), inside]))
    t = np.geomspace(0.1, 20.0, 10)
    return r, t


# ---------------------------------------------------------------------------
# the lab
# ---------------------------------------------------------------------------


class AcceptanceLab:
    """Runs the acceptance suites with a shared cache of sampled error curves."""

    def __init__(self, quad_tol: float = 1e-6, t_min: float = 10.0, t_max: float = 1e4, per_decade: int = 25):
        self.quad_tol = quad_tol
        self._t_grid = geometric_grid(t_min, t_max, per_decade)
        self._curves: dict = {}
        self._checks = {
            "rates_fractional": self.check_rates_fractional,
            "rates_frictional": self.check_rates_frictional,
            "weight_shift": self.check_weight_shift,
            "lower_band": self.check_lower_band,
            "closed_forms": self.check_closed_forms,
            "jet_oracle": self.check_jet_oracle,
            "cutoff_scaling": self.check_cutoff_scaling,
            "high_frequency": self.check_high_frequency,
            "ode_residual": self.check_ode_residual,
            "order_improvement": self.check_order_improvement,
        }

    def _timed_curve(self, p: ModelParams, case: RateCase, k: int):
        """(gaussian-data error curve, seconds its first computation took)."""
        key = (p, case, k)
        if key not in self._curves:
            start = time.perf_counter()
            curve = error_curve(
                p, case, k, gaussian_data(), t_grid=self._t_grid, quad_tol=self.quad_tol
            )
            self._curves[key] = (curve, time.perf_counter() - start)
        return self._curves[key]

    def curve(self, p: ModelParams, case: RateCase, k: int):
        return self._timed_curve(p, case, k)[0]

    def run(self, names=None) -> list[CheckResult]:
        if names is None:
            names = SUITES
        unknown = [n for n in names if n not in self._checks]
        if unknown:
            raise ValueError(f"unknown suite names: {', '.join(unknown)}")
        return [self._checks[name]() for name in names]

    # -- rate suites --------------------------------------------------------

    def _rates_check(self, name: str, p: ModelParams, case: RateCase, orders, budget=None) -> CheckResult:
        # the budget covers computing the fitted curves, whichever suite did it
        elapsed = 0.0
        rows = []
        ok = True
        for k in orders:
            curve, seconds = self._timed_curve(p, case, k)
            elapsed += seconds
            fit = fit_slope(curve, tail_window(curve))
            rows.append(
                {"k": k, "slope": fit.slope, "target": fit.target, "gap": fit.gap}
            )
            ok = ok and fit.gap <= SLOPE_TOL
        details = {"fits": rows, "elapsed_seconds": elapsed, "slope_tol": SLOPE_TOL}
        if budget is not None:
            details["time_budget_seconds"] = budget
            ok = ok and elapsed < budget
        gaps = ", ".join(f"k={row['k']}: {row['gap']:.4f}" for row in rows)
        return CheckResult(name, ok, f"slope gaps {gaps} (tol {SLOPE_TOL})", details)

    def check_rates_fractional(self) -> CheckResult:
        return self._rates_check(
            "rates_fractional",
            CONFIG_FRACTIONAL,
            RateCase.POSITIVE_SIGMA1,
            (0, 1, 2),
            budget=RATES_TIME_BUDGET,
        )

    def check_rates_frictional(self) -> CheckResult:
        return self._rates_check(
            "rates_frictional", CONFIG_FRICTIONAL, RateCase.ZERO_SIGMA1, (1, 2)
        )

    def check_weight_shift(self) -> CheckResult:
        """Raising s to 0.5 must steepen every fitted slope by -s/(2(sigma-sigma1)).

        The comparison is between fitted slopes at s=0.5 and s=0, not between
        either fit and its own theoretical target; the pre-asymptotic bias of
        the tail window is nearly identical for both weights and cancels in
        the difference.
        """
        base = CONFIG_FRACTIONAL
        shifted = replace(base, s=0.5)
        expected = -shifted.s / (2.0 * (base.sigma - base.sigma1))
        rows = []
        ok = True
        for k in (0, 1, 2):
            fit0 = fit_slope(
                self.curve(base, RateCase.POSITIVE_SIGMA1, k),
                tail_window(self.curve(base, RateCase.POSITIVE_SIGMA1, k)),
            )
            fit5 = fit_slope(
                self.curve(shifted, RateCase.POSITIVE_SIGMA1, k),
                tail_window(self.curve(shifted, RateCase.POSITIVE_SIGMA1, k)),
            )
            shift = fit5.slope - fit0.slope
            gap = abs(shift - expected)
            rows.append(
                {
                    "k": k,
                    "slope_s0": fit0.slope,
                    "slope_s05": fit5.slope,
                    "shift": shift,
                    "expected_shift": expected,
                    "gap": gap,
                }
            )
            ok = ok and gap <= SLOPE_TOL
        gaps = ", ".join(f"k={row['k']}: {row['gap']:.4f}" for row in rows)
        details = {"shifts": rows, "slope_tol": SLOPE_TOL}
        return CheckResult(
            "weight_shift", ok, f"slope-shift gaps {gaps} (tol {SLOPE_TOL})", details
        )

    # -- sharpness band ------------------------------------------------------

    def check_lower_band(self) -> CheckResult:
        cases = [
            (CONFIG_FRACTIONAL, RateCase.POSITIVE_SIGMA1, (0, 1, 2)),
            (CONFIG_FRICTIONAL, RateCase.ZERO_SIGMA1, (1, 2)),
        ]
        rows = []
        ok = True
        for p, case, orders in cases:
            for k in orders:
                curve = self.curve(p, case, k)
                lo, hi = lower_bound_band(curve, tail_window(curve))
                ratio = hi / lo if lo > 0.0 else math.inf
                rows.append(
                    {
                        "case": case.value,
                        "k": k,
                        "band_min": lo,
                        "band_max": hi,
                        "ratio": ratio,
                    }
                )
                ok = ok and lo > 0.0 and ratio <= BAND_RATIO_MAX
        worst = max(row["ratio"] for row in rows)
        return CheckResult(
            "lower_band",
            ok,
            f"worst compensated-band ratio {worst:.3f} (max {BAND_RATIO_MAX})",
            {"bands": rows, "ratio_max": BAND_RATIO_MAX},
        )

    # -- closed-form catalog --------------------------------------------------

    def check_closed_forms(self) -> CheckResult:
        setups = [
            (CONFIG_FRACTIONAL, RateCase.POSITIVE_SIGMA1),
            (CONFIG_FRICTIONAL, RateCase.ZERO_SIGMA1),
        ]
        rows = []
        ok = True
        for p, case in setups:
            for k in (1, 2):
                (golden0, gap0), (golden1, gap1) = golden_comparison(p, case, k)
                flags = (golden0.corrected_indices(), golden1.corrected_indices())
                flags_ok = flags == _EXPECTED_CORRECTIONS[(case, k)]
                max_gap = max(gap0, gap1)
                rows.append(
                    {
                        "case": case.value,
                        "k": k,
                        "max_scaled_gap": max_gap,
                        "corrected_indices": [list(flags[0]), list(flags[1])],
                        "flags_ok": flags_ok,
                    }
                )
                ok = ok and flags_ok and max_gap <= GOLDEN_RTOL
        worst = max(row["max_scaled_gap"] for row in rows)
        flags_note = "as documented" if all(row["flags_ok"] for row in rows) else "UNEXPECTED"
        return CheckResult(
            "closed_forms",
            ok,
            f"worst scaled gap to catalog {worst:.3e} (tol {GOLDEN_RTOL:g}), "
            f"correction flags {flags_note}",
            {"comparisons": rows, "rtol": GOLDEN_RTOL},
        )

    # -- jet oracle -----------------------------------------------------------

    def check_jet_oracle(self, draws: int = 20) -> CheckResult:
        rng = np.random.default_rng(_ORACLE_SEED)
        worst_table = 0.0
        worst_fd = 0.0
        ok = True
        for _ in range(draws):
            sigma = float(rng.uniform(1.0, 1.6))
            sigma1 = float(rng.uniform(0.08, 0.35) * sigma)
            sigma2 = float(rng.uniform(0.6, 1.0) * sigma)
            p = ModelParams(n=5, sigma=sigma, sigma1=sigma1, sigma2=sigma2)
            t = float(rng.uniform(0.2, 3.0))
            r = float(rng.uniform(0.6, 1.4))

            jets = kernel_jets(p, t, r, order=4)
            tables = kernel_tables(p, t, r, order=4)
            for name in _KERNEL_NAMES:
                jet = getattr(jets, name)
                for j, m in jet.indices():
                    raw_jet = jet.coeff[j][m] * math.factorial(j) * math.factorial(m)
                    gap = _rel_gap(float(raw_jet), tables[name][j][m])
                    worst_table = max(worst_table, gap)
                fd = _fd_table(
                    lambda a, b, nm=name: kernel_direct(p, t, r, a, b)[nm], FD_STEP
                )
                for (j, m), fd_value in fd.items():
                    raw_jet = jet.coeff[j][m] * math.factorial(j) * math.factorial(m)
                    worst_fd = max(worst_fd, _rel_gap(float(raw_jet), fd_value))
        ok = worst_table <= ORACLE_RTOL and worst_fd <= FD_RTOL
        return CheckResult(
            "jet_oracle",
            ok,
            f"worst gap to derivative tables {worst_table:.3e} (tol {ORACLE_RTOL:g}), "
            f"to finite differences {worst_fd:.3e} (tol {FD_RTOL:g})",
            {
                "draws": draws,
                "table_gap": worst_table,
                "table_rtol": ORACLE_RTOL,
                "fd_gap": worst_fd,
                "fd_rtol": FD_RTOL,
            },
        )

    # -- cutoff scaling ---------------------------------------------------------

    def check_cutoff_scaling(self) -> CheckResult:
        triples = [
            (0.0, 2.0, 1.0, 1, -0.25),
            (1.0, 2.0, 1.0, 3, -1.25),
            (-0.4, 1.0, 2.0, 1, -0.1),
        ]
        rows = []
        ok = True
        for alpha, beta, c, n, expected in triples:
            fit = scaling_check(alpha, beta, c, n)
            rows.append(
                {
                    "alpha": alpha,
                    "beta": beta,
                    "c": c,
                    "n": n,
                    "slope": fit.slope,
                    "target": fit.target,
                    "gap": fit.gap,
                }
            )
            ok = ok and abs(fit.target - expected) < 1e-12 and fit.gap <= SCALING_TOL
        worst = max(row["gap"] for row in rows)
        return CheckResult(
            "cutoff_scaling",
            ok,
            f"worst scaling-slope gap {worst:.4f} (tol {SCALING_TOL})",
            {"fits": rows, "slope_tol": SCALING_TOL},
        )

    # -- high-frequency remainder -------------------------------------------------

    def check_high_frequency(self) -> CheckResult:
        rows = []
        ok = True
        for p in (CONFIG_FRACTIONAL, CONFIG_FRICTIONAL):
            report = high_freq_decay_check(p, gaussian_data())
            rows.append(
                {
                    "sigma1": p.sigma1,
                    "rate": report.rate,
                    "cutoff_radius": report.cutoff_radius,
                    "ratio": report.ratio,
                }
            )
            ok = ok and report.rate > 0.0 and report.ratio < HIGH_FREQ_RATIO_MAX
        worst = max(row["ratio"] for row in rows)
        return CheckResult(
            "high_frequency",
            ok,
            f"worst H(50)/H(1) ratio {worst:.3e} (max {HIGH_FREQ_RATIO_MAX:g})",
            {"reports": rows, "ratio_max": HIGH_FREQ_RATIO_MAX},
        )

    # -- ODE residual ---------------------------------------------------------------

    def check_ode_residual(self) -> CheckResult:
        rows = []
        ok = True
        for p in (CONFIG_FRACTIONAL, CONFIG_FRICTIONAL):
            r_vals, t_vals = residual_grid(p)
            worst, where = ode_residual_max(p, r_vals, t_vals)
            band = oscillation_band(p)
            rows.append(
                {
                    "sigma1": p.sigma1,
                    "max_residual": worst,
                    "at": where,
                    "band": list(band) if band else None,
                }
            )
            ok = ok and worst < RESIDUAL_TOL
        worst = max(row["max_residual"] for row in rows)
        return CheckResult(
            "ode_residual",
            ok,
            f"worst relative ODE residual {worst:.3e} (tol {RESIDUAL_TOL:g})",
            {"grids": rows, "residual_tol": RESIDUAL_TOL},
        )

    # -- order improvement --------------------------------------------------------------

    def check_order_improvement(self) -> CheckResult:
        setups = [
            (CONFIG_FRACTIONAL, RateCase.POSITIVE_SIGMA1),
            (CONFIG_FRICTIONAL, RateCase.ZERO_SIGMA1),
        ]
        rows = []
        ok = True
        for p, case in setups:
            at_boundary = p.sigma1 + p.sigma2 == p.sigma
            for k in (0, 1):
                lower = self.curve(p, case, k)
                higher = self.curve(p, case, k + 1)
                fit = order_improvement_from_curves(lower, higher, tail_window(lower))
                rows.append(
                    {
                        "case": case.value,
                        "k": k,
                        "slope": fit.slope,
                        "target": fit.target,
                        "gap": fit.gap,
                        "delta_branch_boundary": at_boundary,
                    }
                )
                ok = ok and fit.gap <= SLOPE_TOL
        worst = max(row["gap"] for row in rows)
        return CheckResult(
            "order_improvement",
            ok,
            f"worst per-order gain gap {worst:.4f} (tol {SLOPE_TOL})",
            {"fits": rows, "slope_tol": SLOPE_TOL},
        )
