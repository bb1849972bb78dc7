"""Problem parameters and per-mode root geometry.

The object of study is the constant-coefficient evolution family whose
Fourier mode at radial frequency r obeys

    v'' + (r^{2*sigma1} + r^{2*sigma2}) v' + r^{2*sigma} v = 0,

with one weak dissipative exponent sigma1 below sigma/2 and one strong
exponent sigma2 above it.  This module validates the standing parameter
assumptions, computes the theoretical decay exponents of the k-th order
expansion error, and locates the band of frequencies whose characteristic
roots are complex (oscillating modes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ModelError(ValueError):
    pass


class OrderingViolation(ModelError):
    """A standing inequality among (dim, sigma, sigma1, sigma2, s) fails."""


class DimensionTooSmall(ModelError):
    """dim <= 4*sigma1, so the fractional-damping rate theory does not apply."""


class CaseMismatch(ModelError):
    """The requested rate case disagrees with sigma1 (zero vs positive)."""


class BisectionFailure(RuntimeError):
    """Samples indicate a sign change that could not be bracketed."""


class RateCase(Enum):
    """Which decay-rate family applies: sigma1 > 0 or sigma1 = 0."""

    POSITIVE_SIGMA1 = "positive_sigma1"
    ZERO_SIGMA1 = "zero_sigma1"


@dataclass(frozen=True)
class ModelParams:
    """Parameter tuple (n, sigma, sigma1, sigma2, s).

    n is the spatial dimension, s the radial weight exponent applied inside
    every L2 norm.  Construction does not validate; call validate() so that
    deliberately broken tuples can be used to exercise error paths.
    """

    n: int
    sigma: float
    sigma1: float
    sigma2: float
    s: float = 0.0


def case_for(p: ModelParams) -> RateCase:
    return RateCase.ZERO_SIGMA1 if p.sigma1 == 0.0 else RateCase.POSITIVE_SIGMA1


def validate(p: ModelParams, case: RateCase) -> None:
    """Check the standing assumptions for the given rate case.

    Raises OrderingViolation, DimensionTooSmall, or CaseMismatch; returns
    None when every hypothesis holds.
    """
    if p.n < 1 or int(p.n) != p.n:
        raise OrderingViolation(f"n must be a positive integer, got {p.n}")
    if p.sigma < 1.0:
        raise OrderingViolation(f"sigma must be >= 1, got {p.sigma}")
    if not (0.0 <= p.s < math.inf):
        raise OrderingViolation(f"weight s must be finite and >= 0, got {p.s}")
    if not (0.0 <= p.sigma1 < 0.5 * p.sigma):
        raise OrderingViolation(
            f"need 0 <= sigma1 < sigma/2, got sigma1={p.sigma1}, sigma={p.sigma}"
        )
    if not (0.5 * p.sigma < p.sigma2 <= p.sigma):
        raise OrderingViolation(
            f"need sigma/2 < sigma2 <= sigma, got sigma2={p.sigma2}, sigma={p.sigma}"
        )
    if case is RateCase.ZERO_SIGMA1 and p.sigma1 != 0.0:
        raise CaseMismatch(f"rate case {case.value} requires sigma1 = 0, got {p.sigma1}")
    if case is RateCase.POSITIVE_SIGMA1:
        if p.sigma1 == 0.0:
            raise CaseMismatch("rate case positive_sigma1 requires sigma1 > 0")
        if p.n <= 4.0 * p.sigma1:
            raise DimensionTooSmall(
                f"need dim > 4*sigma1 for the fractional-damping rates, "
                f"got n={p.n}, 4*sigma1={4.0 * p.sigma1}"
            )


def delta(p: ModelParams) -> float:
    """Expansion step exponent min(sigma2 - sigma1, sigma - 2*sigma1).

    Each additional expansion order improves the error decay rate by
    delta/(sigma - sigma1); strictly positive under the ordering invariant.
    """
    return min(p.sigma2 - p.sigma1, p.sigma - 2.0 * p.sigma1)


def rate_step(p: ModelParams, case: RateCase) -> float:
    """Decay-exponent improvement per expansion order (a positive number)."""
    if case is RateCase.POSITIVE_SIGMA1:
        return delta(p) / (p.sigma - p.sigma1)
    return p.sigma2 / p.sigma


def error_exponent(p: ModelParams, k: int, case: RateCase) -> float:
    """Theoretical power-law exponent of the k-th order expansion error.

    The weighted L2 norm of the error behaves like (1+t) to this power.
    This is the velocity-driven exponent: it is sharp only when
    u1_hat(0) != 0, as `experiments.lower_bound_band` requires. For
    sigma1 > 0 the position-driven part of the error decays faster by
    sigma1/(sigma - sigma1), because only the velocity kernels carry the
    r^{-2*sigma1} prefactor (see `kernels.kernel_jets`). That offset is
    read off the kernel prefactor and measured on split error curves; the
    paper text held in this repository (the abstract) does not state it.
    """
    validate(p, case)
    if k < 0:
        raise ValueError(f"expansion order k must be >= 0, got {k}")
    if case is RateCase.POSITIVE_SIGMA1:
        x = p.sigma - p.sigma1
        base = -p.n / (4.0 * x) - p.s / (2.0 * x) + p.sigma1 / x
    else:
        base = -p.n / (4.0 * p.sigma) - p.s / (2.0 * p.sigma)
    return base - k * rate_step(p, case)


def discriminant(p: ModelParams, r, a: float = 1.0, b: float = 1.0):
    """Characteristic discriminant (r^{2*sigma1} + a*r^{2*sigma2})^2 - 4b*r^{2*sigma}.

    Negative values mean complex conjugate roots (oscillating modes);
    broadcasts over r.
    """
    r = np.asarray(r, dtype=float)
    half = r ** (2.0 * p.sigma1) + a * r ** (2.0 * p.sigma2)
    out = half * half - 4.0 * b * r ** (2.0 * p.sigma)
    return out if out.ndim else float(out)


# Scan geometry for sign-change hunting; 400 log-spaced samples over twelve
# decades keep every bracket under 7% relative width.
_SCAN_LO = 1e-6
_SCAN_HI = 1e6
_SCAN_POINTS = 400
_BISECT_TOL = 1e-14


def _scan_grid() -> np.ndarray:
    return np.logspace(np.log10(_SCAN_LO), np.log10(_SCAN_HI), _SCAN_POINTS)


def _bisect_edge(f, lo: float, hi: float) -> float:
    """Root of f between lo and hi given f(lo), f(hi) of opposite strict sign.

    Plain bisection to absolute width 1e-14; sign convention follows f(lo).
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BisectionFailure(f"no sign change on [{lo}, {hi}]")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _BISECT_TOL or mid == lo or mid == hi:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oscillation_band(p: ModelParams) -> tuple[float, float] | None:
    """Endpoints (r_low, r_high) of the complex-root frequency band, or None.

    The band is the set where discriminant(p, r, 1, 1) < 0.  By convexity of
    r^{2*sigma1 - sigma} + r^{2*sigma2 - sigma} in log r it is a single
    interval; it is empty exactly when sigma1 + sigma2 = sigma (the two-term
    arithmetic-geometric mean inequality is then an identity at r = 1).
    Endpoints are located by sign scanning plus bisection.
    """

    def d(r: float) -> float:
        return discriminant(p, r, 1.0, 1.0)

    grid = _scan_grid()
    vals = discriminant(p, grid, 1.0, 1.0)
    neg = np.flatnonzero(vals < 0.0)
    if neg.size == 0:
        return None
    first, last = int(neg[0]), int(neg[-1])

    if first > 0:
        left_lo, left_hi = float(grid[first - 1]), float(grid[first])
    else:
        # Band runs off the scan window; walk outward by decades for a bracket.
        left_hi = float(grid[0])
        left_lo = left_hi * 0.1
        for _ in range(60):
            if d(left_lo) >= 0.0:
                break
            left_hi = left_lo
            left_lo *= 0.1
        else:
            raise BisectionFailure("negative discriminant persists below the scan window")
    r_low = _bisect_edge(d, left_lo, left_hi)

    if last < grid.size - 1:
        right_lo, right_hi = float(grid[last]), float(grid[last + 1])
    else:
        right_lo = float(grid[-1])
        right_hi = right_lo * 10.0
        for _ in range(60):
            if d(right_hi) >= 0.0:
                break
            right_lo = right_hi
            right_hi *= 10.0
        else:
            raise BisectionFailure("negative discriminant persists above the scan window")
    r_high = _bisect_edge(d, right_lo, right_hi)
    return r_low, r_high


def eps_star(p: ModelParams) -> float:
    """Low-frequency cutoff radius: half the band onset, or 1/2 if no band.

    Every frequency below eps_star has real characteristic roots, so the
    slow-mode expansion machinery applies on the support of the low cutoff.
    """
    band = oscillation_band(p)
    if band is None:
        return 0.5
    return 0.5 * band[0]


def mode_decay_rate(p: ModelParams, r):
    """Slowest exponential decay rate among the two root branches at r.

    For real roots this is |lambda_slow| = 2 r^{2*sigma} / (A + sqrt(A^2 -
    4 r^{2*sigma})); for complex roots both branches decay like e^{-A t / 2}.
    Continuous across the band edges; broadcasts over r.
    """
    r = np.asarray(r, dtype=float)
    a_sym = r ** (2.0 * p.sigma1) + r ** (2.0 * p.sigma2)
    s_sym = r ** (2.0 * p.sigma)
    disc = a_sym * a_sym - 4.0 * s_sym
    root = np.sqrt(np.maximum(disc, 0.0))
    slow = 2.0 * s_sym / (a_sym + root)
    out = np.where(disc < 0.0, 0.5 * a_sym, slow)
    return out if out.ndim else float(out)


def slow_rate_radius(p: ModelParams, target: float) -> float:
    """Smallest radius at which the slowest mode decay rate reaches target.

    Frequencies at or above the returned radius all decay at least like
    e^{-target * t} (up to the first crossing; the rate is increasing on the
    configurations of interest).  Raises BisectionFailure when the scan never
    reaches target.
    """
    if target <= 0.0:
        raise ValueError(f"target rate must be positive, got {target}")
    grid = _scan_grid()
    rates = mode_decay_rate(p, grid)
    above = np.flatnonzero(rates >= target)
    if above.size == 0:
        raise BisectionFailure(f"mode decay rate never reaches {target} on the scan window")
    i = int(above[0])
    if i == 0:
        return float(grid[0])

    def g(r: float) -> float:
        return mode_decay_rate(p, r) - target

    return _bisect_edge(g, float(grid[i - 1]), float(grid[i]))
