"""Mode multipliers and their parameter jets.

Each Fourier mode solves v'' + (r^{2*sigma1} + r^{2*sigma2}) v' +
r^{2*sigma} v = 0, so v(t) = K0(t, r) v(0) + K1(t, r) v'(0).  To expand the
multipliers around the slow-mode limit, the two damping monomials and the
restoring monomial are tagged with bookkeeping parameters (a, b):

    v'' + (r^{2*sigma1} + a r^{2*sigma2}) v' + b r^{2*sigma} v = 0,

and everything is Taylor-expanded in (a, b) at (0, 0).  The characteristic
roots split there into a slow branch (constant term -r^{2(sigma-sigma1)})
and a fast branch (constant term -r^{2*sigma1}); the b-singular root
normalization is avoided by using the algebraic forms

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

`root_jets` builds Gamma1, Gamma2, G^{-1} and both roots once per radial
grid, `kernel_jets` the (a, b) jets of the four pieces at fixed (t, r);
`exact_multipliers` evaluates K0, K1 themselves at a = b = 1, stably through
the oscillation band where the roots turn complex.

All radial arguments broadcast: passing an array r yields jets with array
coefficients and array multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jet2 import Jet2, add, exp_jet, jet_const, mul, reciprocal, scale, sqrt_jet
from .model import ModelParams

# Decay exponents beyond this underflow double precision; the whole
# exponential factor is flushed to exact zero instead.
EXP_FLUSH = 700.0


@dataclass(frozen=True)
class RootJets:
    """Jets in (a, b) of the t-independent building blocks at fixed r."""

    gamma1: Jet2
    gamma2: Jet2
    g_inv: Jet2
    lam_slow: Jet2
    lam_fast: Jet2


@dataclass(frozen=True)
class KernelJets:
    """Jets in (a, b) of the four rank-one multiplier pieces at fixed (t, r)."""

    pos_fast: Jet2
    pos_slow: Jet2
    vel_slow: Jet2
    vel_fast: Jet2


@dataclass(frozen=True)
class ExactMultipliers:
    """Values of the solution multipliers K0, K1 at a = b = 1."""

    K0: object
    K1: object


def _linear_jet(c0, ca, cb, order: int) -> Jet2:
    """Jet of c0 + ca*a + cb*b; the linear part is dropped at order 0."""
    out = Jet2(order)
    out.coeff[0][0] = c0
    if order >= 1:
        out.coeff[1][0] = ca
        out.coeff[0][1] = cb
    return out


def root_jets(p: ModelParams, r, order: int) -> RootJets:
    """Gamma1, Gamma2, G^{-1} = r^{-2*sigma1} Gamma1 Gamma2^{-1} and the two roots.

    Gamma1 = (1 + a r^{2(sigma2-sigma1)})^{-1} and Gamma2 = sqrt(1 - 4 b
    r^{2(sigma-2*sigma1)} Gamma1^2) have constant term 1.  The roots have
    constant terms -r^{2(sigma-sigma1)} (slow) and -r^{2*sigma1} (fast): at
    small r the slow branch vanishes to higher order, so it dominates for
    large time.
    """
    r = np.asarray(r, dtype=float)
    x = r ** (2.0 * (p.sigma2 - p.sigma1))
    w = r ** (2.0 * (p.sigma - 2.0 * p.sigma1))
    one_plus_ax = _linear_jet(np.ones_like(x), x, np.zeros_like(x), order)
    g1 = reciprocal(one_plus_ax)
    b = _linear_jet(np.zeros_like(w), np.zeros_like(w), np.ones_like(w), order)
    one = jet_const(np.ones_like(x), order)
    g2 = sqrt_jet(add(one, scale(mul(b, mul(g1, g1)), -4.0 * w)))
    one_plus_g2 = add(one, g2)
    mu = r ** (2.0 * (p.sigma - p.sigma1))
    return RootJets(
        gamma1=g1,
        gamma2=g2,
        g_inv=scale(mul(g1, reciprocal(g2)), r ** (-2.0 * p.sigma1)),
        lam_slow=scale(mul(g1, reciprocal(one_plus_g2)), -2.0 * mu),
        lam_fast=scale(mul(one_plus_ax, one_plus_g2), -0.5 * r ** (2.0 * p.sigma1)),
    )


def _flushed_exp(arg):
    """e^{-arg} for arg >= 0, exactly zero past the underflow threshold."""
    dead = arg > EXP_FLUSH
    return np.where(dead, 0.0, np.exp(-np.where(dead, 0.0, arg)))


def _exp_of_root(lam: Jet2, t: float) -> Jet2:
    """Jet of e^{lambda t} for a root jet with nonpositive constant term.

    Split as e^{lam00 t} * exp(nilpotent part * t); the scalar envelope is
    flushed to exact zero past the underflow threshold, killing the whole
    jet without producing inf * 0 intermediates.
    """
    envelope = _flushed_exp(-np.asarray(lam.coeff[0][0], dtype=float) * t)
    nil = Jet2(lam.order)
    for j, m in lam.indices():
        nil.coeff[j][m] = lam.coeff[j][m] * t
    nil.coeff[0][0] = nil.coeff[0][0] * 0.0
    return scale(exp_jet(nil), envelope)


def kernel_jets(p: ModelParams, t: float, r, order: int) -> KernelJets:
    """Jets in (a, b) of the four multiplier pieces at fixed time t.

    Constant terms recover the slow-mode limits: pos_fast has
    -r^{2(sigma-2*sigma1)} e^{-r^{2*sigma1} t}, pos_slow has
    -e^{-r^{2(sigma-sigma1)} t}, and the velocity pieces carry the common
    prefactor r^{-2*sigma1}.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    roots = root_jets(p, r, order)
    ginv = roots.g_inv
    e_slow = _exp_of_root(roots.lam_slow, t)
    e_fast = _exp_of_root(roots.lam_fast, t)
    return KernelJets(
        pos_fast=mul(mul(ginv, roots.lam_slow), e_fast),
        pos_slow=mul(mul(ginv, roots.lam_fast), e_slow),
        vel_slow=mul(ginv, e_slow),
        vel_fast=mul(ginv, e_fast),
    )


def _sinc(y):
    """sin(y)/y with the removable singularity filled by its Taylor value."""
    y = np.asarray(y, dtype=float)
    small = np.abs(y) < 1e-4
    safe = np.where(small, 1.0, y)
    return np.where(small, 1.0 - y * y / 6.0, np.sin(safe) / safe)


def _sinhc(z):
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z * z / 6.0, np.sinh(safe) / safe)


def exact_multipliers(p: ModelParams, t: float, r) -> ExactMultipliers:
    """Solution multipliers K0, K1 at a = b = 1, real in every root regime.

    With A = r^{2*sigma1} + r^{2*sigma2} and discriminant D2 = A^2 -
    4 r^{2*sigma}, the closed forms are K0 = e^{-At/2} (cosh z +
    (At/2) sinhc z) and K1 = e^{-At/2} t sinhc z at z = sqrt(D2) t/2, which
    continue through D2 < 0 via cosh(iy) = cos y and sinhc(iy) = sinc y.
    Evaluation is split three ways to stay inside double precision:

      * D2 < 0: the trigonometric form verbatim (all factors bounded);
      * D2 >= 0, z <= 1/2: the hyperbolic form verbatim (no overflow);
      * z > 1/2: regrouped into pure decaying exponentials
        K0 = (lambda_slow e^{lambda_fast t} - lambda_fast e^{lambda_slow t})/sqrt(D2),
        K1 = e^{lambda_slow t} (1 - e^{-2z})/sqrt(D2),
        with lambda_slow = -2 r^{2*sigma}/(A + sqrt(D2)) evaluated
        cancellation-free.

    K0(0, r) = 1 and K1(0, r) = 0 hold exactly; broadcasts over r.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    r_arr = np.asarray(r, dtype=float)
    nu = r_arr ** (2.0 * p.sigma1)
    a_sym = nu + r_arr ** (2.0 * p.sigma2)
    s_sym = r_arr ** (2.0 * p.sigma)
    disc = a_sym * a_sym - 4.0 * s_sym
    half_t = 0.5 * t
    env_arg = a_sym * half_t
    env = _flushed_exp(env_arg)

    osc = disc < 0.0
    y = np.sqrt(np.where(osc, -disc, 0.0)) * half_t
    root = np.sqrt(np.where(osc, 0.0, disc))
    z = root * half_t
    near = ~osc & (z <= 0.5)

    sinc_y = _sinc(y)
    k0_osc = env * (np.cos(y) + env_arg * sinc_y)
    k1_osc = env * t * sinc_y

    z_near = np.where(near, z, 0.0)
    shc = _sinhc(z_near)
    k0_near = env * (np.cosh(z_near) + env_arg * shc)
    k1_near = env * t * shc

    # Far branch: division by sqrt(D2) is safe (z > 1/2 forces root*t > 1),
    # and both exponentials decay, so nothing overflows.
    far = ~osc & ~near
    root_far = np.where(far, root, 1.0)
    lam_slow = -2.0 * s_sym / (a_sym + root_far)
    lam_fast = -0.5 * (a_sym + root_far)
    e_slow = _flushed_exp(np.where(far, -lam_slow * t, 0.0))
    e_fast = _flushed_exp(np.where(far, -lam_fast * t, 0.0))
    k0_far = (lam_slow * e_fast - lam_fast * e_slow) / root_far
    k1_far = e_slow * (-np.expm1(-2.0 * np.where(far, z, 1.0))) / root_far

    k0 = np.where(osc, k0_osc, np.where(near, k0_near, k0_far))
    k1 = np.where(osc, k1_osc, np.where(near, k1_near, k1_far))
    if k0.ndim == 0:
        return ExactMultipliers(K0=float(k0), K1=float(k1))
    return ExactMultipliers(K0=k0, K1=k1)
