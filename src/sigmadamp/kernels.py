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
`exact_multipliers` evaluates the solution K0 u0 + K1 u1 itself at a = b =
1, stably through the oscillation band where the roots turn complex.

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
`RootJets.kernel_roots` and `mode_roots` are the radial stages of
`kernel_jets` and `exact_multipliers`; `RootJets.summed_kernel_roots` is the
stage of a caller that reads only the sum of the degree rows, as a profile
does, and holds that one row per power.  A caller with many times per radius
builds a stage once on its distinct radii, in rows, and gathers whole rows
to its nodes (`KernelRoots.take`); `kernel_jets` then runs two flushed
envelopes and one Horner pass in t, with no series products.

`mode_roots` folds the caller's data pair (u0, u1) into its stage, so the
time stage of `exact_multipliers` returns K0 u0 + K1 u1 itself and never
forms K0 or K1; the unit pairs `UNIT_PAIRS` give the multipliers.  It gets
the stage itself with the stage row of each row of nodes: the far form,
e^{lambda_slow t} (b + q e^{-sqrt(D2) t}), runs on whole rows, and the
oscillating and near forms on their own nodes where their envelope has not
flushed.  Every operation is elementwise, so a node's values are the floats
the one-stage call gives, which is the same code on rows of one node.
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

    def _branch_parts(self, branches: int):
        """lambda_0 and N (the roots less it) of the first branches, and the series exp(N t) multiplies.

        Branch b is 0 (slow) or 1 (fast), on the axis after the degrees;
        branches = 1 builds the slow branch alone.  factors[:, 0, b] is
        G^{-1} and factors[:, 1, b] is G^{-1} times the other branch's root,
        so piece (kind, b) is e^{lambda_0 t} sum_h t^h (N_b^h/h!) * factors[:, kind, b].
        """
        lam = np.stack((self.lam_slow, self.lam_fast)[:branches], axis=1)
        g_inv = np.broadcast_to(self.g_inv[:, None], lam.shape)
        g_lam = mul(g_inv, np.stack((self.lam_fast, self.lam_slow)[:branches], axis=1))
        factors = np.empty((len(lam), 2) + lam.shape[1:])
        factors[:, 0], factors[:, 1] = g_inv, g_lam
        lam0 = lam[0].copy()
        lam[0] = 0.0
        return lam0, lam, factors

    def kernel_roots(self) -> "KernelRoots":
        """The radial stage of `kernel_jets`: every degree row of every power of t."""
        lam0, nil, factors = self._branch_parts(2)
        return KernelRoots(lam0, np.stack(list(exp_terms(nil, factors))))

    def summed_kernel_roots(self, branches: int = 2) -> "KernelRoots":
        """The radial stage of `kernel_jets` that holds one row per power: the sum of the degree rows.

        branches = 1 builds the slow branch alone, all that a frictional profile reads.
        """
        lam0, nil, factors = self._branch_parts(branches)
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
    The radii are the trailing axes of both; `take` gathers rows of them.
    """

    lam0: np.ndarray
    coeffs: np.ndarray

    def take(self, rows) -> "KernelRoots":
        """The stage at the rows `rows` of its radii, each gathered whole."""
        return KernelRoots(self.lam0.take(rows, axis=-2), self.coeffs.take(rows, axis=-2))


@dataclass(frozen=True)
class KernelJets:
    """Series in eps = a = b of the four rank-one multiplier pieces at fixed (t, r).

    The fast pieces are None when the stage held the slow branch alone.
    """

    pos_fast: np.ndarray | None
    pos_slow: np.ndarray
    vel_slow: np.ndarray
    vel_fast: np.ndarray | None


@dataclass(frozen=True)
class ModeRoots:
    """The t-independent part of `exact_multipliers`: the roots with the data folded in.

    Radii are the last two axes, in rows; the data fields may carry leading
    axes, one entry per data pair.  half_a is A/2, root is sqrt|D2| and osc
    flags D2 < 0 (complex roots).  The near and oscillating forms read the position data
    u0 and v = (A/2) u0 + u1.  The far form reads lam_slow = -2S/(A + sqrt D2),
    b = (u1 - lam_fast u0)/sqrt D2 and q = (lam_slow u0 - u1)/sqrt D2, with
    lam_fast = -(A + sqrt D2)/2; these three are NaN where D2 <= 0.
    """

    half_a: np.ndarray
    root: np.ndarray
    osc: np.ndarray
    lam_slow: np.ndarray
    u0: np.ndarray
    v: np.ndarray
    b: np.ndarray
    q: np.ndarray


# the unit data pairs (1, 0) and (0, 1) as (u0, u1), broadcast over rows of
# radii: a stage on them gives K0 and K1 on a leading axis of two
UNIT_PAIRS = (np.array([[[1.0]], [[0.0]]]), np.array([[[0.0]], [[1.0]]]))


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


def checked_times(t) -> np.ndarray:
    """t as a float array, refused unless every entry is finite and nonnegative."""
    t = np.asarray(t, dtype=float)
    # one mask: NaN fails both comparisons
    ok = (0.0 <= t) & (t < np.inf)
    if not ok.all():
        raise ValueError(f"time must be finite and nonnegative, got {t[~ok].flat[0]}")
    return t


def _flushed_exp(x: np.ndarray) -> np.ndarray:
    """e^x for an array x <= 0, exactly zero below -EXP_FLUSH."""
    # clamped first: np.exp is many times slower on results that underflow;
    # the entries past the threshold are then zeroed by a product with the
    # mask, which leaves a NaN exponent NaN
    out = np.maximum(x, -EXP_FLUSH)
    np.exp(out, out=out)
    out *= x >= -EXP_FLUSH
    return out


def kernel_jets(p: ModelParams, t, r, order: int, roots: KernelRoots | None = None) -> KernelJets:
    """Series in eps = a = b of the four multiplier pieces at times t.

    t is a time or an array of times that broadcasts with r.  roots, when
    given, is a radial stage of order `order` at the broadcast nodes (as a
    gather of it on the distinct radii gives), and is not built again;
    otherwise `root_jets(p, r, order).kernel_roots()` is.  Each piece has one
    row per degree row of the stage: order + 1 rows from `kernel_roots`, their
    sum alone from `summed_kernel_roots`.  A stage that holds the slow branch
    alone (lam0 of length 1) evaluates only the slow pieces.

    Constant terms recover the slow-mode limits: pos_fast has
    -r^{2(sigma-2*sigma1)} e^{-r^{2*sigma1} t}, pos_slow has
    -e^{-r^{2(sigma-sigma1)} t}, and the velocity pieces carry the common
    prefactor r^{-2*sigma1}.  An envelope past the underflow threshold is
    exact zero.
    """
    t = checked_times(t)
    if roots is None:
        r = np.asarray(r, dtype=float)
        nodes = np.broadcast_to(r, np.broadcast_shapes(r.shape, t.shape))
        roots = root_jets(p, nodes, order).kernel_roots()
    coeffs = roots.coeffs
    poly = coeffs[-1]
    for below in coeffs[-2::-1]:
        poly = poly * t + below
    pieces = _flushed_exp(roots.lam0 * t) * poly
    fast = len(roots.lam0) > 1
    return KernelJets(
        pos_fast=pieces[:, 1, 1] if fast else None,
        pos_slow=pieces[:, 1, 0],
        vel_slow=pieces[:, 0, 0],
        vel_fast=pieces[:, 0, 1] if fast else None,
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


def mode_roots(p: ModelParams, r, u0, u1) -> ModeRoots:
    """The radial stage of `exact_multipliers` at the radii r for the data (u0, u1).

    r holds rows of radii.  u0 and u1 hold the data at each radius, with any
    radius-only weight already applied, and broadcast with r on its last two
    axes; leading axes hold several data pairs (`UNIT_PAIRS` gives K0 and
    K1).  The far form's fields are divided out only where D2 > 0: where the
    symbols underflow (A = S = D2 = 0) the quotient would be 0/0.
    """
    a_sym, s_sym, disc = mode_symbols(p, r)
    root = np.sqrt(np.abs(disc))
    a_plus_root = a_sym + root
    real = disc > 0.0
    lam_slow = np.full_like(disc, np.nan)
    np.divide(-2.0 * s_sym, a_plus_root, out=lam_slow, where=real)
    lam_fast = np.full_like(disc, np.nan)
    np.multiply(-0.5, a_plus_root, out=lam_fast, where=real)
    u0, u1, _ = np.broadcast_arrays(np.asarray(u0, dtype=float), np.asarray(u1, dtype=float), disc)
    b = np.full(u0.shape, np.nan)
    np.divide(u1 - lam_fast * u0, root, out=b, where=real)
    q = np.full(u0.shape, np.nan)
    np.divide(lam_slow * u0 - u1, root, out=q, where=real)
    half_a = 0.5 * a_sym
    return ModeRoots(half_a, root, disc < 0.0, lam_slow, u0, half_a * u0 + u1, b, q)


def exact_multipliers(p: ModelParams, t, r, roots: ModeRoots | None = None, rows=None) -> np.ndarray:
    """The mode solution K0 u0 + K1 u1 at a = b = 1, real in every root regime.

    With A = r^{2*sigma1} + r^{2*sigma2} and discriminant D2 = A^2 -
    4 r^{2*sigma}, the closed forms are K0 = e^{-At/2} (cosh z +
    (At/2) sinhc z) and K1 = e^{-At/2} t sinhc z at z = sqrt(D2) t/2, which
    continue through D2 < 0 via cosh(iy) = cos y and sinhc(iy) = sinc y.
    Evaluation is split three ways to stay inside double precision:

      * D2 < 0: e^{-At/2} (cos y u0 + t v sinc y), all factors bounded;
      * D2 >= 0, z <= 1/2: e^{-At/2} (cosh z u0 + t v sinhc z), no overflow;
      * z > 1/2: regrouped into pure decaying exponentials,
        e^{lambda_slow t} (b + q e^{-sqrt(D2) t}), where the second term is
        e^{lambda_fast t} q, and lambda_slow = -2 r^{2*sigma}/(A + sqrt(D2))
        is evaluated cancellation-free.

    v, b and q are the radius-only data of `ModeRoots`.  At t = 0 the value
    is u0 exactly.  An exponential whose argument is below -EXP_FLUSH is
    exact zero: a bounded form whose envelope e^{-At/2} flushes is 0.0,
    and where e^{-sqrt(D2) t} alone flushes, the far form keeps
    e^{lambda_slow t} b.  Short of both edges, their product, which stands
    for e^{lambda_fast t}, may underflow gradually instead of flushing.

    roots is the radial stage `mode_roots` with the caller's data, on rows
    of radii; rows holds the stage row of each row of nodes (every row in
    order when None), t one time per row of nodes, checked by the caller
    (`checked_times`, once per grid), and r the nodes' radii, whose shape
    the value takes after the stage's leading data axes.  Without roots, t
    and r broadcast together, each node a row of width 1 at its own time,
    the stage is built here on the unit pairs, so the value stacks K0 and
    K1 on its first axis, and the times are checked here.
    """
    r = np.asarray(r, dtype=float)
    if roots is None:
        r, t = np.broadcast_arrays(r, checked_times(t))
        roots = mode_roots(p, r.reshape(-1, 1), *UNIT_PAIRS)
    rows = np.arange(roots.root.shape[-2]) if rows is None else rows
    width = roots.root.shape[-1]
    t = np.asarray(t, dtype=float).reshape(len(rows), 1)

    # Gathers here use the ndarray methods: np.take's Python wrapper costs
    # about a microsecond.  The far form runs on every node, which costs less
    # than selecting its nodes: its value is NaN where D2 <= 0 and finite
    # where z <= 1/2, and both bounded forms overwrite theirs.  Both its
    # exponentials decay, so nothing overflows; sqrt(D2) t = 2z > 1 on its own
    # nodes, so b and q were divided by a root that is not small there
    z = roots.root.take(rows, axis=-2) * (0.5 * t)
    e_slow = _flushed_exp(roots.lam_slow.take(rows, axis=-2) * t)
    e_gap = _flushed_exp(-2.0 * z)
    out = e_slow * (roots.b.take(rows, axis=-2) + roots.q.take(rows, axis=-2) * e_gap)
    # The bounded forms e^{-At/2} (even(y) u0 + t v odd(y)) at y = z index
    # their own nodes flat, in the value and in the stage; where the
    # envelope flushes they are 0.0, with even and odd skipped
    flat, u0, v = (x.reshape(x.shape[:-2] + (-1,)) for x in (out, roots.u0, roots.v))
    is_osc = roots.osc.take(rows, axis=-2)
    for mask, even, odd in ((is_osc, np.cos, _sinc), ((z <= 0.5) & ~is_osc, np.cosh, _sinhc)):
        nodes = np.flatnonzero(mask)
        if not nodes.size:
            continue
        row, column = np.divmod(nodes, width)
        at, t_nodes = rows.take(row) * width + column, t.take(row)
        env = _flushed_exp(-roots.half_a.take(at) * t_nodes)
        live = env != 0.0
        if not live.all():
            flat[..., nodes[~live]] = 0.0
            nodes, at, t_nodes, env = nodes[live], at[live], t_nodes[live], env[live]
        y = z.take(nodes)
        flat[..., nodes] = env * (even(y) * u0.take(at, axis=-1) + t_nodes * v.take(at, axis=-1) * odd(y))

    return out.reshape(out.shape[:-2] + r.shape)
