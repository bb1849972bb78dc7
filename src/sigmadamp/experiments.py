"""Error-decay experiments for the profile approximations.

The central object is the weighted L2 error curve

  E(t) = || r^s * (K0 u0 + K1 u1 - P0 u0 - P1 u1) ||_{L2(R^n)},

where (K0, K1) are the exact mode multipliers, (P0, P1) the order-k profile
pair, and (u0, u1) radial spectral data c r^{2m} e^{-alpha r^2} (see
`RadialProfileSpec`).  The checks in this module fit the large-time decay
of E and related norms and compare the fitted exponents to the predicted
rates; `profiles` builds the profile stage and checks the order.  This
module only computes: `cli` renders every report.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fitting import DegenerateFit, FitResult, fit_exponential, fit_loglog
from .kernels import EXP_FLUSH, checked_times, exact_multipliers, mode_roots
from .model import (
    ModelParams,
    case_for,
    check_radius,
    error_exponent,
    error_radius,
    rate_step,
    slow_rate_radius,
    validate,
)
from .profiles import check_order, profile_pair, profile_roots
from .quadrature import CutoffSpec, NonConvergence, RadialIntegrand, l2_radial

# left end of every decay-fit window (`tail_window`)
FIT_T_MIN = 100.0
# |exact - approx| below this relative level loses most significant digits
CANCELLATION_RTOL = 1e-13


class CancellationWarning(UserWarning):
    """The error integrand lost precision to cancellation at some nodes."""


# data kind names, indexed by the order m to which the data vanish at r = 0
DATA_KINDS = ("gaussian", "moment_free")


@dataclass(frozen=True)
class RadialProfileSpec:
    """Radial data profile c r^{2m} e^{-alpha r^2}, of kind DATA_KINDS[m]."""

    m: int
    c: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.m not in range(len(DATA_KINDS)):
            raise ValueError(f"data order m must be in [0, {len(DATA_KINDS) - 1}], got {self.m!r}")
        if not (0.0 < self.alpha < math.inf and abs(self.c) < math.inf):
            raise ValueError(f"data width alpha must be positive and c finite, got {self.alpha}, {self.c}")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        bell = self.c * np.exp(-self.alpha * r * r)
        for _ in range(self.m):
            bell = bell * r * r
        return bell

    def label(self) -> str:
        return f"{DATA_KINDS[self.m]}(c={self.c:g},alpha={self.alpha:g})"


@dataclass(frozen=True)
class SpectralDataSpec:
    """Radial position/velocity data pair feeding the mode multipliers."""

    u0_hat: RadialProfileSpec
    u1_hat: RadialProfileSpec

    def label(self) -> str:
        return f"{self.u0_hat.label()}|{self.u1_hat.label()}"


def spectral_data(kind: str) -> SpectralDataSpec:
    """The data pair whose position and velocity profiles are both of this kind."""
    if kind not in DATA_KINDS:
        raise ValueError(f"unknown data kind {kind!r}; choose from {', '.join(DATA_KINDS)}")
    profile = RadialProfileSpec(DATA_KINDS.index(kind))
    return SpectralDataSpec(profile, profile)


def gaussian_data() -> SpectralDataSpec:
    # kept for perfbench/selftest.py, which imports it
    return spectral_data("gaussian")


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
    def case(self):
        return case_for(self.params)

    def target(self) -> float:
        # the slower of the velocity- and position-driven exponents over the nonzero data, else velocity
        p, k, u0, u1 = self.params, self.k, self.data.u0_hat, self.data.u1_hat
        velocity = error_exponent(p, k, 2 * u1.m)
        if u0.c == 0.0:
            return velocity
        position = error_exponent(p, k, 2 * u0.m) - p.sigma1 / (p.sigma - p.sigma1)
        return position if u1.c == 0.0 else max(velocity, position)


def error_r_max(p: ModelParams, times) -> np.ndarray:
    """Truncation radius for the error integrand at each of the times.

    Modes are damped at rate at least r^{2 sigma1}, so past the reach
    (EXP_FLUSH / t)^{1/(2 sigma1)} every factor is flushed to exact zero.
    The reach is 10 at t_flush = EXP_FLUSH * 10^{-2 sigma1}: from t_flush on
    the radius is 10, before it `model.error_radius(p)` (10 / eps_star; 10 at
    sigma1 = 0), whose stretch past the reach adds exact zeros to the norm.
    """
    t_flush = EXP_FLUSH * 10.0 ** (-2.0 * p.sigma1)
    return np.where(np.asarray(times, dtype=float) < t_flush, error_radius(p), 10.0)


def error_curve(
    p: ModelParams,
    k: int,
    data: SpectralDataSpec,
    t_grid,
    quad_tol: float = 1e-6,
) -> ErrorCurve:
    """Sample E(t) on t_grid, each norm to quad_tol * (1 + E), once validate() and check_order pass."""
    case = case_for(p)
    validate(p, case)
    check_order(p, k)
    t_grid = checked_times(t_grid)

    cancel_hits = 0

    def f(r):
        # everything that depends on the radius alone, once per distinct radius:
        # the weighted data, folded into the exact solution's stage
        weight = r**p.s
        u0, u1 = weight * data.u0_hat(r), weight * data.u1_hat(r)
        modes = mode_roots(p, r, u0, u1)
        roots = profile_roots(p, r, k) if k else None

        def stage(rows, j):
            # every member panel at the time of the sample it belongs to
            nonlocal cancel_hits
            t = t_grid[j][:, None]
            r_rows = r.take(rows, axis=0)
            exact = exact_multipliers(p, t, r_rows, modes, rows)
            if not k:
                # the zero profile pair subtracts +0.0 and cannot cancel
                return exact
            pr0, pr1 = profile_pair(k, p, case, t, r_rows, roots.take(rows))
            approx = pr0 * u0.take(rows, axis=0) + pr1 * u1.take(rows, axis=0)
            diff = exact - approx
            scale = np.maximum(np.abs(exact), np.abs(approx))
            cancel_hits += int(np.count_nonzero(np.abs(diff) < CANCELLATION_RTOL * scale))
            return diff

        return stage

    # the velocity datum's r^{2m}, times at worst the profiles' r^{-2 sigma1} prefactor
    expo = p.s + 2 * data.u1_hat.m - (2.0 * p.sigma1 if k >= 1 else 0.0)
    values = l2_radial(
        RadialIntegrand(f, singularity_exponent=expo),
        p.n,
        r_max=error_r_max(p, t_grid),
        tol=quad_tol,
    )
    zero = np.flatnonzero(values == 0.0)
    if zero.size and (data.u0_hat.c != 0.0 or data.u1_hat.c != 0.0):
        # the squared integrand underflowed: 0.0 is not the norm of nonzero data
        raise NonConvergence(f"error norm underflows to 0 at t = {t_grid[zero[0]]:.6g} for nonzero data")
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
    The target is that of the nonzero datum that decays slowest
    (`ErrorCurve.target`), so only zero data (both c = 0) have no band.
    """
    if curve.data.u0_hat.c == 0.0 and curve.data.u1_hat.c == 0.0:
        raise ValueError("sharpness band needs nonzero data, got u0_hat.c = u1_hat.c = 0")
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
    mode; that radius is at most 1, so the cutoff stays inside r_max >= 10.
    H is sampled at 25 times evenly spaced on [1, 50], each norm to
    1e-8 * (1 + H).  Raises ModelError when `model.check_radius` refuses
    the truncation radius: the radial weight, r^s or the mode symbols
    overflow out to it.
    """
    cutoff_radius = 2.0 * slow_rate_radius(p, 0.6)
    t_grid = np.linspace(1.0, 50.0, 25)
    cut = CutoffSpec(cutoff_radius)
    # data tails die like e^{-alpha r^2}: past sqrt(EXP_FLUSH/alpha) they underflow
    alpha_min = min(data.u0_hat.alpha, data.u1_hat.alpha)
    r_max = max(10.0, np.sqrt(EXP_FLUSH / alpha_min))
    check_radius(p, r_max)

    def f(r):
        weight = r**p.s * cut.chi_high(r)
        modes = mode_roots(p, r, weight * data.u0_hat(r), weight * data.u1_hat(r))

        def stage(rows, j):
            return exact_multipliers(p, t_grid[j][:, None], r.take(rows, axis=0), modes, rows)

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
    if lower.data != higher.data:
        raise ValueError("order-improvement curves must share data")
    if lower.times.shape != higher.times.shape or not np.array_equal(lower.times, higher.times):
        raise ValueError("order-improvement curves must share the time grid")
    window = tail_window(lower)
    target = -rate_step(lower.params)
    ratios = higher.values[window] / lower.values[window]
    return fit_loglog(lower.times[window], ratios, target)
