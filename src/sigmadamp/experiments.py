"""Error-decay experiments for the profile approximations.

The central object is the weighted L2 error curve

  E(t) = || r^s * (K0 u0 + K1 u1 - P0 u0 - P1 u1) ||_{L2(R^n)},

where (K0, K1) are the exact mode multipliers, (P0, P1) the order-k profile
pair, and (u0, u1) radial spectral data.  The checks in this module fit the
large-time decay of E and related norms and compare the fitted exponents to
the predicted rates.  This module only computes: `cli` renders every report.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fitting import DegenerateFit, FitResult, fit_exponential, fit_loglog
from .kernels import EXP_FLUSH, exact_multipliers, multiplier_symbols, summed_kernel_roots
from .model import (
    ModelParams,
    RateCase,
    case_for,
    check_reach,
    error_exponent,
    error_radius,
    rate_step,
    slow_rate_radius,
    validate,
)
from .profiles import profile_pair
from .quadrature import CutoffSpec, RadialIntegrand, l2_radial

MAX_PROFILE_ORDER = 3
# left end of every decay-fit window (`tail_window`)
FIT_T_MIN = 100.0
# |exact - approx| below this relative level loses most significant digits
CANCELLATION_RTOL = 1e-13


class CancellationWarning(UserWarning):
    """The error integrand lost precision to cancellation at some nodes."""


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
    k: int
    data: SpectralDataSpec
    times: np.ndarray
    values: np.ndarray
    cancellation_hits: int = 0

    @property
    def case(self) -> RateCase:
        return case_for(self.params)

    def target(self) -> float:
        return error_exponent(self.params, self.k)


def error_r_max(p: ModelParams, times) -> np.ndarray:
    """Truncation radius for the error integrand at each of the times.

    High frequencies are damped at rate at least r^{2 sigma1}, so beyond
    (EXP_FLUSH / t)^{1/(2 sigma1)} every surviving factor is flushed to zero;
    the radius is clamped to [10, model.error_radius(p)] (10 / eps_star), with
    the oscillation band scanned for eps_star once for all the times.  Without
    weak damping (sigma1 = 0) the radius is 10.
    """
    times = np.asarray(times, dtype=float)
    top = error_radius(p)
    if p.sigma1 == 0.0:
        return np.full(times.shape, top)
    # a Python loop, so each reach is libm's pow: NumPy's float power differs
    # from it in the last ulp, which moved E(120.2) of a moment-free curve
    radii = []
    for t in times:
        reach = (EXP_FLUSH / t) ** (0.5 / p.sigma1) if t > 0.0 else math.inf
        radii.append(max(10.0, min(reach, top)))
    return np.array(radii)


def error_curve(
    p: ModelParams,
    k: int,
    data: SpectralDataSpec,
    t_grid,
    quad_tol: float = 1e-6,
) -> ErrorCurve:
    """Sample E(t) at the times of t_grid, each norm to quad_tol * (1 + E)."""
    case = case_for(p)
    validate(p, case)
    if not (0 <= k <= MAX_PROFILE_ORDER):
        raise ValueError(f"profile order must be in [0, {MAX_PROFILE_ORDER}], got {k}")
    t_grid = np.asarray(t_grid, dtype=float)

    cancel_hits = 0

    def f(r):
        # everything that depends on the radius alone, once per distinct radius
        symbols = multiplier_symbols(p, r)
        roots = summed_kernel_roots(p, r, k - 1) if k else None
        u0, u1, weight = data.u0_hat(r), data.u1_hat(r), r**p.s

        def stage(at, j):
            # every node at the time of the sample it belongs to
            nonlocal cancel_hits
            t = t_grid[j]
            r_at = np.take(r, at)
            em = exact_multipliers(p, t, r_at, symbols.take(at))
            u0_at, u1_at = np.take(u0, at), np.take(u1, at)
            exact = em.K0 * u0_at + em.K1 * u1_at
            if not k:
                # the zero profile pair subtracts +0.0 and cannot cancel
                return np.take(weight, at) * np.abs(exact)
            pr0, pr1 = profile_pair(k, p, case, t, r_at, roots.take(at))
            approx = pr0 * u0_at + pr1 * u1_at
            diff = exact - approx
            scale = np.maximum(np.abs(exact), np.abs(approx))
            cancel_hits += int(
                np.count_nonzero((np.abs(diff) < CANCELLATION_RTOL * scale) & (scale > 0.0))
            )
            return np.take(weight, at) * np.abs(diff)

        return stage

    # the profile families carry at worst the r^{-2 sigma1} velocity prefactor
    expo = p.s - (2.0 * p.sigma1 if k >= 1 else 0.0)
    values = l2_radial(
        RadialIntegrand(f, singularity_exponent=expo),
        p.n,
        r_max=error_r_max(p, t_grid),
        tol=quad_tol,
    )
    if cancel_hits:
        warnings.warn(
            f"error integrand lost precision at {cancel_hits} quadrature nodes "
            f"(k={k}, {data.label()}); the sampled curve may be noise-limited there",
            CancellationWarning,
            stacklevel=2,
        )
    return ErrorCurve(p, k, data, t_grid, values, cancel_hits)


def tail_window(curve: ErrorCurve, t_max: float = 1e4) -> slice:
    """Index window of the curve restricted to [FIT_T_MIN, t_max]."""
    idx = np.flatnonzero((curve.times >= FIT_T_MIN) & (curve.times <= t_max))
    if idx.size == 0:
        raise DegenerateFit(f"no curve samples inside [{FIT_T_MIN:g}, {t_max:g}]")
    return slice(int(idx[0]), int(idx[-1]) + 1)


def fit_slope(curve: ErrorCurve, window: slice | None = None) -> FitResult:
    """Power-law fit of the curve over the window (default: the [1e2, 1e4] tail)."""
    if window is None:
        window = tail_window(curve)
    return fit_loglog(curve.times[window], curve.values[window], curve.target())


def lower_bound_band(curve: ErrorCurve) -> tuple[float, float]:
    """Range of E(t) * (1 + t)^{|target|} over the [1e2, 1e4] tail.

    A positive lower end pinned within a bounded ratio of the upper end
    witnesses that the predicted rate is sharp, not just an upper bound.
    Meaningful only when the velocity data has nonzero frequency-zero value.
    """
    if curve.data.p1 == 0.0:
        raise ValueError(
            "sharpness band needs u1_hat(0) != 0; this data pair has none"
        )
    window = tail_window(curve)
    scaled = curve.values[window] * (1.0 + curve.times[window]) ** (-curve.target())
    return float(scaled.min()), float(scaled.max())


@dataclass(frozen=True)
class HighFreqReport:
    """Exponential-decay fit of the high-frequency remainder norm."""

    rate: float
    cutoff_radius: float
    h_first: float
    h_last: float
    ratio: float


def high_freq_decay_check(p: ModelParams, data: SpectralDataSpec) -> HighFreqReport:
    """Fit the decay of H(t) = || r^s (K0 u0 + K1 u1) chi_high ||_{L2(R^n)}.

    Frequencies above the cutoff are uniformly damped, so H decays
    exponentially; the cutoff places the chi_high onset at the radius where
    the slow decay rate reaches 0.6, making e^{-0.6 t} the worst surviving
    mode.  H is sampled at 25 times evenly spaced on [1, 50], each norm to
    1e-8 * (1 + H).  Raises ModelError when the dimension overflows the
    radial weight out to the truncation radius (`model.check_reach`).
    """
    cutoff_radius = 2.0 * slow_rate_radius(p, 0.6)
    t_grid = np.linspace(1.0, 50.0, 25)
    cut = CutoffSpec(cutoff_radius)
    # data tails die like e^{-alpha r^2}: past sqrt(EXP_FLUSH/alpha) they underflow
    alpha_min = min(data.u0_hat.alpha, data.u1_hat.alpha)
    r_max = max(10.0, 1.5 * cutoff_radius, np.sqrt(EXP_FLUSH / alpha_min))
    check_reach(p.n, r_max)

    def f(r):
        symbols = multiplier_symbols(p, r)
        weight, u0, u1, chi = r**p.s, data.u0_hat(r), data.u1_hat(r), cut.chi_high(r)

        def stage(at, j):
            em = exact_multipliers(p, t_grid[j], np.take(r, at), symbols.take(at))
            values = em.K0 * np.take(u0, at) + em.K1 * np.take(u1, at)
            return np.take(weight, at) * np.abs(values) * np.take(chi, at)

        return stage

    # chi_high vanishes identically near the origin
    h_values = l2_radial(
        RadialIntegrand(f, singularity_exponent=0.0),
        p.n,
        r_max=np.full(len(t_grid), float(r_max)),
        tol=1e-8,
    )
    fit = fit_exponential(t_grid, h_values, target=0.0)
    return HighFreqReport(
        rate=-fit.slope,
        cutoff_radius=float(cutoff_radius),
        h_first=float(h_values[0]),
        h_last=float(h_values[-1]),
        ratio=float(h_values[-1] / h_values[0]),
    )


def order_improvement_from_curves(lower: ErrorCurve, higher: ErrorCurve) -> FitResult:
    """Fit the decay of E_{k+1}(t) / E_k(t) over the [1e2, 1e4] tail.

    The gain per order is one rate step.
    """
    if higher.k != lower.k + 1:
        raise ValueError(f"need consecutive orders, got k={lower.k} and k={higher.k}")
    if lower.params != higher.params:
        raise ValueError("order-improvement curves must share parameters")
    if lower.times.shape != higher.times.shape or not np.array_equal(lower.times, higher.times):
        raise ValueError("order-improvement curves must share the time grid")
    window = tail_window(lower)
    target = -rate_step(lower.params)
    ratios = higher.values[window] / lower.values[window]
    return fit_loglog(lower.times[window], ratios, target)
