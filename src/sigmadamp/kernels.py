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

Time enters only through e^{lambda t}, and in closed form: with N the root
series less its constant term lambda_0, N^h vanishes below degree h, so up
to order K

    e^{lambda t} = e^{lambda_0 t} sum_{h <= K} t^h N^h/h!

and each piece is its envelope e^{lambda_0 t} times a polynomial in t whose
coefficient series depend on the radius alone (vel_b = G^{-1} N_b^h/h!,
pos_fast = vel_fast lambda_slow, pos_slow = vel_slow lambda_fast, per power
h).  Each layer therefore splits into a radial stage and a time stage.
`kernel_roots` and `multiplier_symbols` are the radial stages of
`kernel_jets` and `exact_multipliers`; `summed_kernel_roots` is the stage of
a caller that reads only the sum of the degree rows, as a profile does, and
holds that one row per power.  A caller with many times per radius builds a
stage once on its distinct radii, gathers it to its nodes with its `take`,
and hands it to the time stage: two flushed envelopes and one Horner pass in
t, with no series products.  Every operation is elementwise, so a node's
values are the floats the one-stage call gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jet2 import exp_terms, linear_series, mul, reciprocal, sqrt_series
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

    def _branch_parts(self):
        """lambda_0 and N (the roots less it) of both branches, and the series exp(N t) multiplies.

        Branch b is 0 (slow) or 1 (fast), on the axis after the degrees.
        factors[:, 0, b] is G^{-1} and factors[:, 1, b] is G^{-1} times the
        other branch's root, so piece (kind, b) is
        e^{lambda_0 t} sum_h t^h (N_b^h/h!) * factors[:, kind, b].
        """
        lam = np.empty((len(self.g_inv), 2) + self.g_inv.shape[1:])
        lam[:, 0], lam[:, 1] = self.lam_slow, self.lam_fast
        g_inv = np.broadcast_to(self.g_inv[:, None], lam.shape)
        g_lam = mul(g_inv, lam[:, ::-1])
        factors = np.empty((len(lam), 2) + lam.shape[1:])
        factors[:, 0], factors[:, 1] = g_inv, g_lam
        lam0 = lam[0].copy()
        lam[0] = 0.0
        return lam0, lam, factors

    def kernel_roots(self) -> "KernelRoots":
        """The radial stage of `kernel_jets`: every degree row of every power of t."""
        lam0, nil, factors = self._branch_parts()
        return KernelRoots(lam0, np.stack(list(exp_terms(nil, factors))))

    def summed_kernel_roots(self) -> "KernelRoots":
        """The radial stage of `kernel_jets` that holds one row per power: the sum of the degree rows."""
        lam0, nil, factors = self._branch_parts()
        order = len(nil) - 1
        # partial sums factors[0] + ... + factors[j], in place
        for j in range(1, order + 1):
            factors[j] += factors[j - 1]
        coeffs = np.empty((order + 1, 1) + factors.shape[1:])
        # the unit series, with as many coefficient axes as nil
        unit = np.zeros((order + 1,) + (1,) * (nil.ndim - 1))
        unit[0] = 1.0
        for h, term in enumerate(exp_terms(nil, unit)):
            # the degree sum of term * factors is sum_i term[i] (factors[0] + ...
            # + factors[order - i]); term vanishes below degree h
            acc = coeffs[h, 0]
            np.multiply(term[h], factors[order - h], out=acc)
            for i in range(h + 1, order + 1):
                acc += term[i] * factors[order - i]
        return KernelRoots(lam0, coeffs)


@dataclass(frozen=True)
class KernelRoots:
    """The t-independent part of `kernel_jets`: envelopes and polynomial coefficients in t.

    lam0 holds the constant terms (lambda_slow, lambda_fast) of the roots on
    its axis 0.  coeffs[h, d, kind, b] is the degree-d series coefficient of
    the t^h term of the velocity (kind 0) or position (kind 1) piece with
    envelope e^{lam0[b] t}; a summed stage has the single degree row d = 0.
    The radii are the last axis of both.
    """

    lam0: np.ndarray
    coeffs: np.ndarray

    def take(self, at) -> "KernelRoots":
        """The stage at the radii of indices `at`."""
        return KernelRoots(np.take(self.lam0, at, axis=-1), np.take(self.coeffs, at, axis=-1))


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
    """The radial stage of `kernel_jets`, every degree row: `root_jets(...).kernel_roots()`."""
    return root_jets(p, r, order).kernel_roots()


def summed_kernel_roots(p: ModelParams, r, order: int) -> KernelRoots:
    """The radial stage of `kernel_jets` summed over degrees: `root_jets(...).summed_kernel_roots()`."""
    return root_jets(p, r, order).summed_kernel_roots()


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


def kernel_jets(p: ModelParams, t, r, order: int, roots: KernelRoots | None = None) -> KernelJets:
    """Series in eps = a = b of the four multiplier pieces at times t.

    t is a time or an array of times that broadcasts with r.  roots, when
    given, is a radial stage of order `order` at the broadcast nodes (as a
    gather of it on the distinct radii gives), and is not built again;
    otherwise `kernel_roots(p, r, order)` is.  Each piece has one row per
    degree row of the stage: order + 1 rows from `kernel_roots`, their sum
    alone from `summed_kernel_roots`.

    Constant terms recover the slow-mode limits: pos_fast has
    -r^{2(sigma-2*sigma1)} e^{-r^{2*sigma1} t}, pos_slow has
    -e^{-r^{2(sigma-sigma1)} t}, and the velocity pieces carry the common
    prefactor r^{-2*sigma1}.  An envelope past the underflow threshold is
    exact zero.
    """
    t = _times(t)
    if roots is None:
        r = np.asarray(r, dtype=float)
        roots = kernel_roots(p, np.broadcast_to(r, np.broadcast_shapes(r.shape, t.shape)), order)
    coeffs = roots.coeffs
    poly = coeffs[-1]
    for below in coeffs[-2::-1]:
        poly = poly * t + below
    pieces = _flushed_exp(-roots.lam0 * t) * poly
    return KernelJets(
        pos_fast=pieces[:, 1, 1],
        pos_slow=pieces[:, 1, 0],
        vel_slow=pieces[:, 0, 0],
        vel_fast=pieces[:, 0, 1],
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
