"""Error-decay experiments for the profile approximations.

The central object is the weighted L2 error curve

  E(t) = || r^s * (K0 u0 + K1 u1 - P0 u0 - P1 u1) ||_{L2(R^n)},

where (K0, K1) are the exact mode multipliers, (P0, P1) the order-k profile
pair, and (u0, u1) radial spectral data.  The checks in this module fit the
large-time decay of E and related norms and compare the fitted exponents to
the predicted rates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fitting import DegenerateFit, FitResult, fit_exponential, fit_loglog, geometric_grid
from .kernels import EXP_FLUSH, exact_multipliers
from .model import ModelParams, RateCase, error_exponent, eps_star, rate_step, slow_rate_radius, validate
from .profiles import profile_pair
from .quadrature import CutoffSpec, RadialIntegrand, l2_radial

MAX_PROFILE_ORDER = 3
# |exact - approx| below this relative level loses most significant digits
CANCELLATION_RTOL = 1e-13


class CancellationWarning(UserWarning):
    """The error integrand lost precision to cancellation at some nodes."""


class RequiresNonzeroP1(ValueError):
    """The requested bound is only meaningful when u1_hat(0) != 0."""


@dataclass(frozen=True)
class RadialProfileSpec:
    """Radial data profile: gaussian c e^{-alpha r^2} or moment-free c r^2 e^{-alpha r^2}."""

    kind: str
    c: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "moment_free"):
            raise ValueError(f"unknown data kind {self.kind!r}")
        if self.alpha <= 0.0:
            raise ValueError(f"data width alpha must be positive, got {self.alpha}")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        bell = self.c * np.exp(-self.alpha * r * r)
        return bell * r * r if self.kind == "moment_free" else bell

    @property
    def value_at_zero(self) -> float:
        return self.c if self.kind == "gaussian" else 0.0

    def label(self) -> str:
        return f"{self.kind}(c={self.c:g},alpha={self.alpha:g})"


def gaussian(c: float = 1.0, alpha: float = 1.0) -> RadialProfileSpec:
    return RadialProfileSpec("gaussian", c, alpha)


def moment_free(c: float = 1.0, alpha: float = 1.0) -> RadialProfileSpec:
    return RadialProfileSpec("moment_free", c, alpha)


@dataclass(frozen=True)
class SpectralDataSpec:
    """Radial position/velocity data pair feeding the mode multipliers."""

    u0_hat: RadialProfileSpec
    u1_hat: RadialProfileSpec

    @property
    def p1(self) -> float:
        """Velocity-data value at frequency zero; drives the leading profile term."""
        return self.u1_hat.value_at_zero

    def label(self) -> str:
        return f"{self.u0_hat.label()}|{self.u1_hat.label()}"


def gaussian_data(c: float = 1.0, alpha: float = 1.0) -> SpectralDataSpec:
    return SpectralDataSpec(gaussian(c, alpha), gaussian(c, alpha))


def moment_free_data(c: float = 1.0, alpha: float = 1.0) -> SpectralDataSpec:
    return SpectralDataSpec(moment_free(c, alpha), moment_free(c, alpha))


# data presets by the name the command line and the report labels use
DATA_PRESETS = {"gaussian": gaussian_data, "moment_free": moment_free_data}


@dataclass(frozen=True, eq=False)
class ErrorCurve:
    """Sampled error norm E(t) for one configuration and profile order."""

    params: ModelParams
    case: RateCase
    k: int
    data: SpectralDataSpec
    times: np.ndarray
    values: np.ndarray
    cancellation_hits: int = 0

    def target(self) -> float:
        return error_exponent(self.params, self.k, self.case)


def error_r_max(p: ModelParams, t: float) -> float:
    """Truncation radius for the error integrand at time t.

    High frequencies are damped at rate at least r^{2 sigma1}, so beyond
    (EXP_FLUSH / t)^{1/(2 sigma1)} every surviving factor is flushed to zero;
    the radius is clamped to [10, 10 / eps_star].
    """
    if p.sigma1 > 0.0:
        reach = (EXP_FLUSH / t) ** (0.5 / p.sigma1) if t > 0.0 else math.inf
        return max(10.0, min(reach, 10.0 / eps_star(p)))
    return 10.0


def _error_integrand(p, case, k, data, t, cancel_box):
    def f(r):
        em = exact_multipliers(p, t, r)
        pr0, pr1 = profile_pair(k, p, case, t, r)
        u0 = data.u0_hat(r)
        u1 = data.u1_hat(r)
        exact = em.K0 * u0 + em.K1 * u1
        approx = pr0 * u0 + pr1 * u1
        diff = exact - approx
        scale = np.maximum(np.abs(exact), np.abs(approx))
        cancel_box[0] += int(
            np.count_nonzero((np.abs(diff) < CANCELLATION_RTOL * scale) & (scale > 0.0))
        )
        return r**p.s * np.abs(diff)

    # the profile families carry at worst the r^{-2 sigma1} velocity prefactor
    expo = p.s - (2.0 * p.sigma1 if k >= 1 else 0.0)
    return RadialIntegrand(f, singularity_exponent=expo)


def error_curve(
    p: ModelParams,
    case: RateCase,
    k: int,
    data: SpectralDataSpec,
    t_grid=None,
    quad_tol: float = 1e-6,
) -> ErrorCurve:
    """Sample E(t) on a geometric time grid (default 25 points per decade on [10, 1e4])."""
    validate(p, case)
    if not (0 <= k <= MAX_PROFILE_ORDER):
        raise ValueError(f"profile order must be in [0, {MAX_PROFILE_ORDER}], got {k}")
    if t_grid is None:
        t_grid = geometric_grid(10.0, 1e4, 25)
    t_grid = np.asarray(t_grid, dtype=float)

    cancel_box = [0]
    values = np.array(
        [
            l2_radial(
                _error_integrand(p, case, k, data, t, cancel_box),
                p.n,
                r_max=error_r_max(p, t),
                tol=quad_tol,
            )
            for t in t_grid
        ]
    )
    if cancel_box[0]:
        warnings.warn(
            f"error integrand lost precision at {cancel_box[0]} quadrature nodes "
            f"(k={k}, {data.label()}); the sampled curve may be noise-limited there",
            CancellationWarning,
            stacklevel=2,
        )
    return ErrorCurve(p, case, k, data, t_grid, values, cancel_box[0])


def tail_window(curve: ErrorCurve, t_min: float = 100.0, t_max: float = 1e4) -> slice:
    """Index window of the curve restricted to [t_min, t_max]."""
    idx = np.flatnonzero((curve.times >= t_min) & (curve.times <= t_max))
    if idx.size == 0:
        raise DegenerateFit(f"no curve samples inside [{t_min:g}, {t_max:g}]")
    return slice(int(idx[0]), int(idx[-1]) + 1)


def fit_slope(curve: ErrorCurve, window: slice | None = None, target: float | None = None) -> FitResult:
    """Power-law fit of the curve over the window (default: the [1e2, 1e4] tail)."""
    if window is None:
        window = tail_window(curve)
    if target is None:
        target = curve.target()
    return fit_loglog(curve.times[window], curve.values[window], target)


def lower_bound_band(curve: ErrorCurve, window: slice | None = None) -> tuple[float, float]:
    """Range of E(t) * (1 + t)^{|target|} over the window.

    A positive lower end pinned within a bounded ratio of the upper end
    witnesses that the predicted rate is sharp, not just an upper bound.
    Meaningful only when the velocity data has nonzero frequency-zero value.
    """
    if curve.data.p1 == 0.0:
        raise RequiresNonzeroP1(
            "sharpness band needs u1_hat(0) != 0; this data pair has none"
        )
    if window is None:
        window = tail_window(curve)
    scaled = curve.values[window] * (1.0 + curve.times[window]) ** (-curve.target())
    return float(scaled.min()), float(scaled.max())


@dataclass(frozen=True)
class HighFreqReport:
    """Exponential-decay fit of the high-frequency remainder norm."""

    rate: float
    fit: FitResult
    cutoff_radius: float
    h_first: float
    h_last: float
    ratio: float


def high_freq_decay_check(
    p: ModelParams,
    data: SpectralDataSpec,
    t_grid=None,
    cutoff_radius: float | None = None,
    quad_tol: float = 1e-8,
) -> HighFreqReport:
    """Fit the decay of H(t) = || r^s (K0 u0 + K1 u1) chi_high ||_{L2(R^n)}.

    Frequencies above the cutoff are uniformly damped, so H decays
    exponentially; the default cutoff places the chi_high onset at the
    radius where the slow decay rate reaches 0.6, making e^{-0.6 t} the
    worst surviving mode.
    """
    if cutoff_radius is None:
        cutoff_radius = 2.0 * slow_rate_radius(p, 0.6)
    if t_grid is None:
        t_grid = np.linspace(1.0, 50.0, 25)
    t_grid = np.asarray(t_grid, dtype=float)
    cut = CutoffSpec(cutoff_radius)
    # data tails die like e^{-alpha r^2}: past sqrt(EXP_FLUSH/alpha) they underflow
    alpha_min = min(data.u0_hat.alpha, data.u1_hat.alpha)
    r_max = max(10.0, 1.5 * cutoff_radius, np.sqrt(EXP_FLUSH / alpha_min))

    def integrand_at(t: float):
        def f(r):
            em = exact_multipliers(p, t, r)
            return r**p.s * np.abs(em.K0 * data.u0_hat(r) + em.K1 * data.u1_hat(r)) * cut.chi_high(r)

        # chi_high vanishes identically near the origin
        return RadialIntegrand(f, singularity_exponent=0.0)

    h_values = np.array(
        [l2_radial(integrand_at(t), p.n, r_max=r_max, tol=quad_tol) for t in t_grid]
    )
    fit = fit_exponential(t_grid, h_values, target=0.0)
    return HighFreqReport(
        rate=-fit.slope,
        fit=fit,
        cutoff_radius=float(cutoff_radius),
        h_first=float(h_values[0]),
        h_last=float(h_values[-1]),
        ratio=float(h_values[-1] / h_values[0]),
    )


def order_improvement_from_curves(
    lower: ErrorCurve, higher: ErrorCurve, window: slice | None = None
) -> FitResult:
    """Fit the decay of E_{k+1}(t) / E_k(t); the gain per order is one rate step."""
    if higher.k != lower.k + 1:
        raise ValueError(f"need consecutive orders, got k={lower.k} and k={higher.k}")
    if lower.params != higher.params or lower.case is not higher.case:
        raise ValueError("order-improvement curves must share parameters and case")
    if lower.times.shape != higher.times.shape or not np.array_equal(lower.times, higher.times):
        raise ValueError("order-improvement curves must share the time grid")
    if window is None:
        window = tail_window(lower)
    target = -rate_step(lower.params, lower.case)
    ratios = higher.values[window] / lower.values[window]
    return fit_loglog(lower.times[window], ratios, target)


def params_dict(p: ModelParams) -> dict:
    """The parameter tuple under the names the reports use."""
    return {"dim": p.n, "sigma": p.sigma, "sigma1": p.sigma1, "sigma2": p.sigma2, "s": p.s}


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
    lines += [f"{t:.17g},{v:.17g}" for t, v in zip(curve.times, curve.values)]
    return "\n".join(lines) + "\n"


def fit_json_dict(fit: FitResult) -> dict:
    return {
        "slope": fit.slope,
        "target": fit.target,
        "gap": fit.gap,
        "residual": fit.max_residual,
    }


def curve_json_dict(curve: ErrorCurve, fit: FitResult | None = None) -> dict:
    """Render a curve (and optional fit) as a JSON-ready dict, schema_version 1."""
    out = {
        "schema_version": 1,
        "params": params_dict(curve.params),
        "case": curve.case.value,
        "k": curve.k,
        "data": curve.data.label(),
        "target_rate": curve.target(),
        "cancellation_hits": curve.cancellation_hits,
        "times": [float(t) for t in curve.times],
        "values": [float(v) for v in curve.values],
    }
    if fit is not None:
        out["fit"] = fit_json_dict(fit)
    return out
