"""Problem parameters and per-mode root geometry.

The object of study is the constant-coefficient evolution family whose
Fourier mode at radial frequency r obeys

    v'' + (r^{2*sigma1} + r^{2*sigma2}) v' + r^{2*sigma} v = 0,

with one weak dissipative exponent sigma1 below sigma/2 and one strong
exponent sigma2 above it.  This module validates the standing parameter
assumptions, computes the decay exponents of the k-th order expansion error
(one formula in nu = n + 2s + 2j for both damping cases), builds the mode
symbols (`mode_symbols`, for the whole lab), and locates, on closed-form
brackets, the band of frequencies whose characteristic roots are complex.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ModelError(ValueError):
    """A parameter tuple breaks the hypotheses of the rate theorems.

    The one error the command line blames on its input (exit code 2); the
    message names the inequality that fails.
    """


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

    Raises ModelError naming the first hypothesis that fails: dim a positive
    int (not a bool, nor an integral float), an ordering among (sigma,
    sigma1, sigma2, s), dim > 4*sigma1 for the fractional-damping rates, a
    case that disagrees with sigma1, or a dimension or sigma2 too large for
    the error norms.  Every sample weights f(r)^2 by r^{n-1} out to the one
    radius error_radius(p), 10 when sigma1 = 0 and 10 / eps_star >= 20
    otherwise, and `check_radius` needs n * ln(radius) < ln(DBL_MAX) =
    709.78 (n <= 308 without weak damping, n <= 236 at most with it), the
    same of s (s < 308.25 at radius 10, s < 236.93 at radius 20), and A^2 ~
    r^{4*sigma2} finite there.  `experiments.high_freq_decay_check` checks
    its own radius, which depends on the data.  Returns None when every
    hypothesis holds.
    """
    if isinstance(p.n, bool) or not isinstance(p.n, int) or p.n < 1:
        raise ModelError(f"n must be a positive integer, got {p.n!r}")
    if p.sigma < 1.0:
        raise ModelError(f"sigma must be >= 1, got {p.sigma}")
    if not (0.0 <= p.s < math.inf):
        raise ModelError(f"weight s must be finite and >= 0, got {p.s}")
    if not (0.0 <= p.sigma1 < 0.5 * p.sigma):
        raise ModelError(
            f"need 0 <= sigma1 < sigma/2, got sigma1={p.sigma1}, sigma={p.sigma}"
        )
    if not (0.5 * p.sigma < p.sigma2 <= p.sigma):
        raise ModelError(
            f"need sigma/2 < sigma2 <= sigma, got sigma2={p.sigma2}, sigma={p.sigma}"
        )
    if case is RateCase.ZERO_SIGMA1 and p.sigma1 != 0.0:
        raise ModelError(f"rate case {case.value} requires sigma1 = 0, got {p.sigma1}")
    if case is RateCase.POSITIVE_SIGMA1:
        if p.sigma1 == 0.0:
            raise ModelError("rate case positive_sigma1 requires sigma1 > 0")
        if p.n <= 4.0 * p.sigma1:
            raise ModelError(
                f"need dim > 4*sigma1 for the fractional-damping rates, "
                f"got n={p.n}, 4*sigma1={4.0 * p.sigma1}"
            )
    # error_radius(p) < 20 * 2^{1/a} with a = sigma - 2*sigma1, because a lower
    # band edge r = e^{-x} solves e^{a x} + e^{-b x} = 2 (b = 2*sigma2 - sigma),
    # so e^{a x} < 2; only a tuple too large for that bound searches the band
    ln_top = math.log(20.0) + math.log(2.0) / (p.sigma - 2.0 * p.sigma1)
    if max(max(p.n, p.s) * ln_top, _ln_symbol_top(p, ln_top)) >= _LN_FLOAT_MAX:
        check_radius(p, error_radius(p))


# a norm over radius R in dimension n weights by r^{n-1}: its panels reach R^n
_LN_FLOAT_MAX = math.log(sys.float_info.max)


def _ln_symbol_top(p: ModelParams, ln_r: float) -> float:
    """ln max(A^2, 4 S) at the radius r = e^{ln_r} >= 1 (see `mode_symbols`)."""
    # ln A = 2 sigma2 ln r + ln(1 + r^{2(sigma1 - sigma2)}), and that ratio is at most 1
    ln_a = 2.0 * p.sigma2 * ln_r + math.log1p(math.exp(2.0 * (p.sigma1 - p.sigma2) * ln_r))
    return max(2.0 * ln_a, math.log(4.0) + 2.0 * p.sigma * ln_r)


def check_radius(p: ModelParams, radius: float) -> None:
    """Raise ModelError unless an error norm of p can be weighted out to radius.

    Such a norm weights its integrand by r^{n-1} and by r^s, and builds the
    mode symbols, out to radius.  Refused, in this order: radius^n past
    DBL_MAX (the radial weight overflows, and Gamma(n/2) in the sphere
    measure overflows from n = 344 on), radius^s past DBL_MAX, and
    D2 = A^2 - 4 S past DBL_MAX, where A^2 ~ r^{4*sigma2} (or 4 S when the
    oscillation band reaches the radius).  Past any of these the norm comes
    out inf or NaN instead of a number.
    """
    ln_r = math.log(radius)
    if p.n * ln_r >= _LN_FLOAT_MAX:
        raise ModelError(
            f"dim {p.n} overflows the radial weight r^(n-1) out to radius {radius:.6g}; "
            f"need n * ln(radius) < {_LN_FLOAT_MAX:.2f}"
        )
    if p.s * ln_r >= _LN_FLOAT_MAX:
        raise ModelError(
            f"weight s={p.s} overflows r^s out to radius {radius:.6g}; "
            f"need s * ln(radius) < {_LN_FLOAT_MAX:.2f}"
        )
    if _ln_symbol_top(p, ln_r) >= _LN_FLOAT_MAX:
        raise ModelError(
            f"sigma2={p.sigma2} overflows the mode symbol A^2 ~ r^(4*sigma2) out to radius "
            f"{radius:.6g}; need 4*sigma2*ln(radius) < {_LN_FLOAT_MAX:.2f}"
        )


def delta(p: ModelParams) -> float:
    """Expansion step exponent min(sigma2 - sigma1, sigma - 2*sigma1).

    Each additional expansion order improves the error decay rate by
    delta/(sigma - sigma1); strictly positive under the ordering invariant.
    """
    return min(p.sigma2 - p.sigma1, p.sigma - 2.0 * p.sigma1)


def rate_step(p: ModelParams) -> float:
    """Decay-exponent gain per order, delta/(sigma - sigma1): sigma2/sigma at sigma1 = 0."""
    return delta(p) / (p.sigma - p.sigma1)


def error_exponent(p: ModelParams, k: int, data_order: int = 0) -> float:
    """Theoretical power-law exponent of the k-th order expansion error.

    The weighted L2 norm of the error behaves like (1+t) to the power
    -nu/(4x) + sigma1/x - k * rate_step(p), x = sigma - sigma1, in both
    damping cases.  Its square weights r^{2s} r^{2j} r^{n-1} for velocity
    data vanishing like r^j at r = 0 (j = data_order), so n, s and j enter
    as one radial exponent nu = n + 2s + 2j.  This is the velocity-driven
    part; a position datum vanishing like r^j drives a part faster by
    sigma1/x, since only the velocity kernels carry the r^{-2*sigma1}
    prefactor (see `kernels.kernel_jets`), an offset measured on split error
    curves that the abstract held here does not state.  The error decays at
    the slower part's rate (`experiments.ErrorCurve.target`).
    """
    validate(p, case_for(p))
    if k < 0:
        raise ValueError(f"expansion order k must be >= 0, got {k}")
    nu = p.n + 2.0 * p.s + 2.0 * data_order
    x = p.sigma - p.sigma1
    return -nu / (4.0 * x) + p.sigma1 / x - k * rate_step(p)


def mode_symbols(p: ModelParams, r):
    """The symbols (A, S, D2) of the mode equation lambda^2 + A lambda + S = 0 at r.

    A = r^{2*sigma1} + r^{2*sigma2} is the damping, S = r^{2*sigma} the
    restoring symbol and D2 = A^2 - 4 S the discriminant: negative values
    mean complex conjugate roots (oscillating modes).  Broadcasts over r.
    """
    r = np.asarray(r, dtype=float)
    a_sym = r ** (2.0 * p.sigma1) + r ** (2.0 * p.sigma2)
    s_sym = r ** (2.0 * p.sigma)
    return a_sym, s_sym, a_sym * a_sym - 4.0 * s_sym


def _bisect_edge(f, inside: float, outside: float) -> float:
    """Where f leaves the sign it has at inside, going toward outside.

    Plain bisection until the midpoint equals an end, so the bracket ends as
    two adjacent floats; where f keeps its sign all the way, that is outside
    (or the float next to it).  A zero of f at inside is inside.
    """
    f_in = f(inside)
    if f_in == 0.0:
        return inside
    while True:
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_in > 0.0):
            inside = mid
        else:
            outside = mid


def oscillation_band(p: ModelParams) -> tuple[float, float] | None:
    """Endpoints (r_low, r_high) of the complex-root frequency band, or None.

    With a = sigma - 2*sigma1 > 0 and b = 2*sigma2 - sigma > 0, the
    discriminant D2 of mode_symbols(p, r) has the sign of g(r) = r^{-a} +
    r^b - 2, which is convex in log r with g(1) = 0 and its minimum at
    r_deep = (a/b)^{1/(a+b)}.  So the band is [r_low, 1] when sigma1 + sigma2
    > sigma (r_deep < 1), [1, r_high] when sigma1 + sigma2 < sigma, and empty
    when they are equal.  The other edge lies between r_deep and the radius
    where the growing term alone is 4: r_low in [4^{-1/a}, r_deep], r_high in
    [r_deep, 4^{1/b}], where neither term exceeds 4.  g is bisected there in
    Python floats; a bracket end past e^{+-708} is cut there, and an edge
    beyond the cut is reported at it.
    """
    a = p.sigma - 2.0 * p.sigma1
    b = 2.0 * p.sigma2 - p.sigma

    def g(r: float) -> float:
        # r^{-a} - 2 is exact (Sterbenz) wherever r^{-a} is in [1, 4], as below 1
        return (r**-a - 2.0) + r**b

    def power(x: float, y: float) -> float:
        # x^y, cut to [e^-708, e^708]
        ln = y * math.log(x)
        return x**y if abs(ln) < 708.0 else math.exp(math.copysign(708.0, ln))

    deep = power(a / b, 1.0 / (a + b))
    # a and b can differ in rounding when they are equal
    if p.sigma1 + p.sigma2 == p.sigma or not g(deep) < 0.0:
        return None  # empty, or too narrow to show in double precision
    if deep < 1.0:
        return _bisect_edge(g, deep, power(0.25, 1.0 / a)), 1.0
    return 1.0, _bisect_edge(g, deep, power(4.0, 1.0 / b))


def eps_star(p: ModelParams) -> float:
    """Low-frequency cutoff radius: half the band onset, or 1/2 if no band.

    Every frequency below eps_star has real characteristic roots, so the
    slow-mode expansion machinery applies on the support of the low cutoff.
    The onset is r_low < 1 or exactly 1, so eps_star <= 1/2 either way.
    """
    band = oscillation_band(p)
    return 0.5 if band is None else 0.5 * band[0]


def error_radius(p: ModelParams) -> float:
    """Truncation radius of every error norm: 10 / eps_star, or 10 if sigma1 = 0.

    `experiments.error_curve` integrates every sample time out to it.
    """
    return 10.0 if p.sigma1 == 0.0 else 10.0 / eps_star(p)


def mode_decay_rate(p: ModelParams, r):
    """Slowest exponential decay rate among the two root branches at r.

    For real roots this is |lambda_slow| = 2 r^{2*sigma} / (A + sqrt(A^2 -
    4 r^{2*sigma})); for complex roots both branches decay like e^{-A t / 2}.
    Continuous across the band edges; broadcasts over r.
    """
    a_sym, s_sym, disc = mode_symbols(p, r)
    root = np.sqrt(np.maximum(disc, 0.0))
    slow = 2.0 * s_sym / (a_sym + root)
    return np.where(disc < 0.0, 0.5 * a_sym, slow)


def slow_rate_radius(p: ModelParams, target: float) -> float:
    """Smallest radius at which the slowest mode decay rate reaches target in (0, 1].

    The rate rises strictly on (0, 1] to exactly 1 at r = 1 (A = 2, S = 1,
    D2 = 0), so every frequency in [radius, 1] decays at least like
    e^{-target * t}.  It never exceeds 2S/A <= 2 r^{2(sigma - sigma1)}, so the
    crossing is bisected on [(target/2)^{1/(2(sigma - sigma1))}, 1].
    """
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target rate must be in (0, 1], got {target}")
    below = (0.5 * target) ** (0.5 / (p.sigma - p.sigma1))
    return _bisect_edge(lambda r: mode_decay_rate(p, r) - target, 1.0, below)
