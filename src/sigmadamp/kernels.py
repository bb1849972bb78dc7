"""Mode multipliers and their Taylor series in the damping tags.

Each Fourier mode solves v'' + (r^{2*sigma1} + r^{2*sigma2}) v' +
r^{2*sigma} v = 0, so v(t) = K0(t, r) v(0) + K1(t, r) v'(0).  To expand the
multipliers around the slow-mode limit, the strong damping monomial and the
restoring monomial are tagged with bookkeeping parameters (a, b):

    v'' + (r^{2*sigma1} + a r^{2*sigma2}) v' + b r^{2*sigma} v = 0.

The characteristic roots split at (a, b) = (0, 0) into a slow branch
(constant term -r^{2(sigma-sigma1)}) and a fast branch (constant term
-r^{2*sigma1}); the b-singular root normalization is avoided by using the
algebraic forms

    lambda_slow = -2 r^{2(sigma-sigma1)} Gamma1 (1 + Gamma2)^{-1},
    lambda_fast = -(r^{2*sigma1}/2) (1 + a r^{2(sigma2-sigma1)}) (1 + Gamma2),

with Gamma1 = (1 + a r^{2(sigma2-sigma1)})^{-1} and Gamma2 = sqrt(1 - 4 b
r^{2(sigma-2*sigma1)} Gamma1^2).  The root gap is G = lambda_slow -
lambda_fast = r^{2*sigma1} (1 + a r^{2(sigma2-sigma1)}) Gamma2, and the
multipliers decompose into four rank-one pieces

    K0 = pos_fast - pos_slow,   pos_fast = G^{-1} lambda_slow e^{lambda_fast t},
                                pos_slow = G^{-1} lambda_fast e^{lambda_slow t},
    K1 = vel_slow - vel_fast,   vel_slow = G^{-1} e^{lambda_slow t},
                                vel_fast = G^{-1} e^{lambda_fast t}.

The profiles only read the tagged Taylor polynomials at a = b = 1, so the
pieces are expanded on the diagonal a = b = eps as one-variable series (see
`jet2`): the a-tag enters as 1 + eps x, and the b-tag shifts the series of
Gamma1^2 up by one degree in 1 - 4 eps w Gamma1^2.  The degree-d coefficient
is the sum of the bivariate coefficients c_jm over j + m = d; the bivariate
tables themselves are built independently in `acceptance.kernel_tables`.

`root_jets` builds the series of Gamma1, Gamma2, G^{-1} and both roots once
per radial grid, `kernel_jets` those of the four pieces at given (t, r);
`exact_multipliers` evaluates K0, K1 themselves at a = b = 1, stably through
the oscillation band where the roots turn complex.

All radial arguments broadcast: an array r yields series of shape
(order + 1, *r.shape) and array multipliers.  Times broadcast with the
radii, so one call can evaluate every node at its own time; each node's
values are the floats a call at its time alone gives.

Time enters only through e^{lambda t}, so each layer splits into a radial
stage and a time stage.  `kernel_roots` (built on `root_jets`) and
`multiplier_symbols` are the radial stages of `kernel_jets` and
`exact_multipliers`: a caller with many times per radius builds them once on
its distinct radii, gathers them to its nodes with their `take`, and hands
them to the time stage, which then skips them.  Every operation is
elementwise, so a node's values are the floats the one-stage call gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jet2 import exp_series, linear_series, mul, reciprocal, sqrt_series
from .model import ModelParams, mode_symbols

# Decay exponents beyond this underflow double precision; the whole
# exponential factor is flushed to exact zero instead.
EXP_FLUSH = 700.0


@dataclass(frozen=True)
class RootJets:
    """Series in eps = a = b of the t-independent building blocks at fixed r."""

    gamma1: np.ndarray
    gamma2: np.ndarray
    g_inv: np.ndarray
    lam_slow: np.ndarray
    lam_fast: np.ndarray

    def kernel_roots(self) -> "KernelRoots":
        """The series `kernel_jets` reads: G^{-1}, and both roots stacked on axis 1."""
        return KernelRoots(self.g_inv, np.stack([self.lam_slow, self.lam_fast], axis=1))


@dataclass(frozen=True)
class KernelRoots:
    """The t-independent series `kernel_jets` reads: G^{-1} and both roots side by side.

    lam holds (lambda_slow, lambda_fast) on its axis 1, so its radial axis is 2.
    """

    g_inv: np.ndarray
    lam: np.ndarray

    def take(self, at) -> "KernelRoots":
        """The series at the radii of indices `at`."""
        return KernelRoots(np.take(self.g_inv, at, axis=1), np.take(self.lam, at, axis=2))


@dataclass(frozen=True)
class KernelJets:
    """Series in eps = a = b of the four rank-one multiplier pieces at fixed (t, r)."""

    pos_fast: np.ndarray
    pos_slow: np.ndarray
    vel_slow: np.ndarray
    vel_fast: np.ndarray


@dataclass(frozen=True)
class MultiplierSymbols:
    """The t-independent symbols of `exact_multipliers` at fixed r (flat arrays)."""

    a_sym: np.ndarray
    s_sym: np.ndarray
    disc: np.ndarray

    def take(self, at) -> "MultiplierSymbols":
        """The symbols at the radii of indices `at`."""
        return MultiplierSymbols(*(np.take(x, at) for x in vars(self).values()))


@dataclass(frozen=True)
class ExactMultipliers:
    """Values of the solution multipliers K0, K1 at a = b = 1."""

    K0: object
    K1: object


def root_jets(p: ModelParams, r, order: int) -> RootJets:
    """Gamma1, Gamma2, G^{-1} = r^{-2*sigma1} Gamma1 Gamma2^{-1} and the two roots.

    Gamma1 = (1 + eps x)^{-1} and Gamma2 = sqrt(1 - 4 eps w Gamma1^2), with
    x = r^{2(sigma2-sigma1)} and w = r^{2(sigma-2*sigma1)}, have constant
    term 1.  The roots have constant terms -r^{2(sigma-sigma1)} (slow) and
    -r^{2*sigma1} (fast): at small r the slow branch vanishes to higher
    order, so it dominates for large time.
    """
    r = np.asarray(r, dtype=float)
    x = r ** (2.0 * (p.sigma2 - p.sigma1))
    w = r ** (2.0 * (p.sigma - 2.0 * p.sigma1))
    one_plus_ax = linear_series(1.0, x, order)
    g1 = reciprocal(one_plus_ax)
    # 1 - 4 eps w Gamma1^2: the factor eps shifts Gamma1^2 up by one degree
    inside = np.zeros_like(g1)
    inside[0] = 1.0
    inside[1:] = -4.0 * w * mul(g1, g1)[:-1]
    g2 = sqrt_series(inside)
    one_plus_g2 = g2.copy()
    one_plus_g2[0] += 1.0
    mu = r ** (2.0 * (p.sigma - p.sigma1))
    return RootJets(
        gamma1=g1,
        gamma2=g2,
        g_inv=r ** (-2.0 * p.sigma1) * mul(g1, reciprocal(g2)),
        lam_slow=-2.0 * mu * mul(g1, reciprocal(one_plus_g2)),
        lam_fast=-0.5 * r ** (2.0 * p.sigma1) * mul(one_plus_ax, one_plus_g2),
    )


def kernel_roots(p: ModelParams, r, order: int) -> KernelRoots:
    """The radial stage of `kernel_jets`: `root_jets` with both roots stacked on axis 1."""
    return root_jets(p, r, order).kernel_roots()


def _times(t) -> np.ndarray:
    """t as a float array, refused if any entry is negative."""
    t = np.asarray(t, dtype=float)
    if (t < 0.0).any():
        raise ValueError(f"time must be nonnegative, got {t[t < 0.0].min()}")
    return t


def _flushed_exp(arg: np.ndarray) -> np.ndarray:
    """e^{-arg} for an array arg >= 0, exactly zero past the underflow threshold."""
    # clamped first: np.exp is many times slower on results that underflow,
    # and every entry past the threshold is zeroed anyway
    out = np.exp(-np.minimum(arg, EXP_FLUSH))
    out[arg > EXP_FLUSH] = 0.0
    return out


def _exp_of_root(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Series of e^{lambda t} for a root series with nonpositive constant term.

    Split as e^{lam[0] t} * exp(nilpotent part * t); the envelope is
    flushed to exact zero past the underflow threshold, killing the whole
    series without producing inf * 0 intermediates.
    """
    envelope = _flushed_exp(-lam[0] * t)
    nil = lam * t
    nil[0] = 0.0
    return envelope * exp_series(nil)


def kernel_jets(p: ModelParams, t, r, order: int, roots: KernelRoots | None = None) -> KernelJets:
    """Series in eps = a = b of the four multiplier pieces at times t.

    t is a time or an array of times that broadcasts with r.  roots, when
    given, is `kernel_roots(p, r, order)` at the broadcast nodes (as a
    gather of it on the distinct radii gives), and is not built again.

    Constant terms recover the slow-mode limits: pos_fast has
    -r^{2(sigma-2*sigma1)} e^{-r^{2*sigma1} t}, pos_slow has
    -e^{-r^{2(sigma-sigma1)} t}, and the velocity pieces carry the common
    prefactor r^{-2*sigma1}.
    """
    t = _times(t)
    if roots is None:
        r = np.asarray(r, dtype=float)
        roots = kernel_roots(p, np.broadcast_to(r, np.broadcast_shapes(r.shape, t.shape)), order)
    lam = roots.lam
    exps = _exp_of_root(lam, t)
    vel = mul(np.broadcast_to(roots.g_inv[:, None], exps.shape), exps)
    # pos_fast = G^{-1} e^{lambda_fast t} lambda_slow, pos_slow the other way round
    pos = mul(vel[:, ::-1], lam)
    return KernelJets(
        pos_fast=pos[:, 0], pos_slow=pos[:, 1], vel_slow=vel[:, 0], vel_fast=vel[:, 1]
    )


def _removable(x: np.ndarray, form, taylor) -> np.ndarray:
    """form(x), with the removable singularity at 0 filled by taylor(x).

    Each node gets only its own form: taylor below |x| = 1e-4, form elsewhere.
    """
    small = np.abs(x) < 1e-4
    if not small.any():
        return form(x)
    out = np.empty_like(x)
    out[small] = taylor(x[small])
    wide = ~small
    out[wide] = form(x[wide])
    return out


def _sinc(y: np.ndarray) -> np.ndarray:
    """sin(y)/y on a 1-d array."""
    return _removable(y, lambda v: np.sin(v) / v, lambda v: 1.0 - v * v / 6.0)


def _sinhc(z: np.ndarray) -> np.ndarray:
    """sinh(z)/z on a 1-d array."""
    return _removable(z, lambda v: np.sinh(v) / v, lambda v: 1.0 + v * v / 6.0)


def multiplier_symbols(p: ModelParams, r) -> MultiplierSymbols:
    """`model.mode_symbols` (A, r^{2*sigma}, D2) at the radii r, flattened."""
    return MultiplierSymbols(*mode_symbols(p, np.ravel(r)))


def exact_multipliers(
    p: ModelParams, t, r, symbols: MultiplierSymbols | None = None
) -> ExactMultipliers:
    """Solution multipliers K0, K1 at a = b = 1, real in every root regime.

    With A = r^{2*sigma1} + r^{2*sigma2} and discriminant D2 = A^2 -
    4 r^{2*sigma}, the closed forms are K0 = e^{-At/2} (cosh z +
    (At/2) sinhc z) and K1 = e^{-At/2} t sinhc z at z = sqrt(D2) t/2, which
    continue through D2 < 0 via cosh(iy) = cos y and sinhc(iy) = sinc y.
    Evaluation is split three ways to stay inside double precision, and each
    form is evaluated only on the nodes of its own regime:

      * D2 < 0: the trigonometric form verbatim (all factors bounded);
      * D2 >= 0, z <= 1/2: the hyperbolic form verbatim (no overflow);
      * z > 1/2: regrouped into pure decaying exponentials
        K0 = (lambda_slow e^{lambda_fast t} - lambda_fast e^{lambda_slow t})/sqrt(D2),
        K1 = e^{lambda_slow t} (1 - e^{-2z})/sqrt(D2),
        with lambda_slow = -2 r^{2*sigma}/(A + sqrt(D2)) evaluated
        cancellation-free.

    K0(0, r) = 1 and K1(0, r) = 0 hold exactly.  t and r broadcast together
    (each node at its own time when both are arrays), and K0, K1 take their
    broadcast shape.  symbols, when given, is `multiplier_symbols` of the
    broadcast nodes (as a gather of it on the distinct radii gives), and is
    not built again.
    """
    r_arr, t_arr = np.broadcast_arrays(np.asarray(r, dtype=float), _times(t))
    t_flat = t_arr.ravel()
    if symbols is None:
        symbols = multiplier_symbols(p, r_arr)
    a_sym, s_sym, disc = symbols.a_sym, symbols.s_sym, symbols.disc
    half_t = 0.5 * t_flat
    k0 = np.empty_like(disc)
    k1 = np.empty_like(disc)

    # the node indices of each regime; its values are scattered back by them
    is_osc = disc < 0.0
    osc = np.flatnonzero(is_osc)
    real = np.flatnonzero(~is_osc)
    root = np.sqrt(disc[real])
    z = root * half_t[real]
    is_near = z <= 0.5
    near, far = real[is_near], real[~is_near]

    if osc.size:
        half_t_osc = half_t[osc]
        env_arg = a_sym[osc] * half_t_osc
        env = _flushed_exp(env_arg)
        y = np.sqrt(-disc[osc]) * half_t_osc
        sinc_y = _sinc(y)
        k0[osc] = env * (np.cos(y) + env_arg * sinc_y)
        k1[osc] = env * t_flat[osc] * sinc_y

    if near.size:
        env_arg = a_sym[near] * half_t[near]
        env = _flushed_exp(env_arg)
        z_near = z[is_near]
        shc = _sinhc(z_near)
        k0[near] = env * (np.cosh(z_near) + env_arg * shc)
        k1[near] = env * t_flat[near] * shc

    # Far branch: division by sqrt(D2) is safe (z > 1/2 forces root*t > 1),
    # and both exponentials decay, so nothing overflows.
    if far.size:
        is_far = ~is_near
        root_far = root[is_far]
        a_plus_root = a_sym[far] + root_far
        lam_slow = -2.0 * s_sym[far] / a_plus_root
        lam_fast = -0.5 * a_plus_root
        t_far = t_flat[far]
        e_slow = _flushed_exp(-lam_slow * t_far)
        e_fast = _flushed_exp(-lam_fast * t_far)
        k0[far] = (lam_slow * e_fast - lam_fast * e_slow) / root_far
        k1[far] = e_slow * (-np.expm1(-2.0 * z[is_far])) / root_far

    return ExactMultipliers(K0=k0.reshape(r_arr.shape), K1=k1.reshape(r_arr.shape))
