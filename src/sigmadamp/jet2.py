"""Truncated one-variable Taylor series.

The kernels tag their two damping monomials with bookkeeping parameters
(a, b), but a profile reads the tagged Taylor polynomial only at a = b = 1:
the sum of the scaled coefficients c_jm over j + m <= K.  On the diagonal
a = b = eps the degree-d coefficient of f(eps, eps) is the shell sum
sum_{j+m=d} c_jm, so that value is also the sum of the first K + 1
coefficients of a one-variable series (the univariate-Taylor reduction of
Griewank, Utke and Walther, Math. Comp. 69, 2000).  The lab therefore
propagates series in eps only.

A series of order K is a float array of shape (K + 1, *r.shape): row d holds
the degree-d coefficient at every radial node.  `mul` is the truncated
Cauchy product, and `reciprocal` and `sqrt_series` follow the standard
recurrences (Griewank and Walther, Evaluating Derivatives, 2nd ed., SIAM
2008, ch. 13); each costs O(K^2) whole-array operations, so a higher order
adds rows, not Python loops per node.

The exponential is never a recurrence in time.  For a series x with zero
constant term, x^h starts at degree h, so exp(t x) = sum_{h <= K} t^h x^h/h!
holds for every t: `exp_terms` builds the terms x^h/h! (times a series y)
once, and a caller with many times evaluates the sum as a polynomial in t.
"""

from __future__ import annotations

import numpy as np


def linear_series(c0, c1, order: int) -> np.ndarray:
    """Series of c0 + c1*eps; the linear term is dropped at order 0."""
    if order < 0:
        raise ValueError(f"series order must be nonnegative, got {order}")
    c0 = np.asarray(c0, dtype=float)
    c1 = np.asarray(c1, dtype=float)
    out = np.zeros((order + 1,) + np.broadcast_shapes(c0.shape, c1.shape))
    out[0] = c0
    if order >= 1:
        out[1] = c1
    return out


def _dot(x, y):
    """sum_i x[i] * y[i] over the leading axis, accumulated in index order."""
    acc = x[0] * y[0]
    for i in range(1, len(x)):
        acc += x[i] * y[i]
    return acc


def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Truncated product of two series of one shape: out[d] = sum_{i <= d} x[i] y[d - i]."""
    if x.shape != y.shape:
        raise ValueError(f"series shapes differ: {x.shape} vs {y.shape}")
    out = np.empty(x.shape)
    for d in range(len(x)):
        out[d] = _dot(x[: d + 1], y[d::-1])
    return out


def reciprocal(x: np.ndarray) -> np.ndarray:
    """1/x: y[0] = 1/x[0], y[d] = -(sum_{i=1..d} x[i] y[d-i]) / x[0]."""
    if np.any(x[0] == 0.0):
        raise ValueError("reciprocal needs a nonzero constant term")
    out = np.empty(x.shape)
    out[0] = 1.0 / x[0]
    for d in range(1, len(x)):
        out[d] = -out[0] * _dot(x[1 : d + 1], out[d - 1 :: -1])
    return out


def sqrt_series(x: np.ndarray) -> np.ndarray:
    """sqrt(x): y[0] = sqrt(x[0]), y[d] = (x[d] - sum_{i=1..d-1} y[i] y[d-i]) / (2 y[0])."""
    if np.any(x[0] <= 0.0):
        raise ValueError("sqrt needs a positive constant term")
    out = np.empty(x.shape)
    out[0] = np.sqrt(x[0])
    half_inv = 0.5 / out[0]
    for d in range(1, len(x)):
        rest = x[d] - _dot(out[1:d], out[d - 1 : 0 : -1]) if d > 1 else x[d]
        out[d] = half_inv * rest
    return out


def exp_terms(x: np.ndarray, y: np.ndarray):
    """Yield the terms x^h/h! * y of exp(t x) * y = sum_h t^h x^h/h! * y, h = 0..K.

    x must have zero constant term, so term h vanishes below degree h and
    the sum stops at h = K for every scalar t.  The coefficients x[d] and
    y[d] broadcast, y[d] with at least as many axes as x[d]; term 0 is y
    itself.  Each term is x times the one before it, over h, with the
    coefficients known to be zero skipped, so a caller that consumes the
    terms in turn holds two at a time.
    """
    if np.any(x[0] != 0.0):
        raise ValueError("exp_terms needs a zero constant term")
    order = len(x) - 1
    shape = (order + 1,) + np.broadcast_shapes(x.shape[1:], y.shape[1:])
    term = y
    yield term
    for h in range(1, order + 1):
        prev, term = term, np.zeros(shape)
        # degree d gets x[i] prev[d - i] for i = 1, 2, ... in turn; prev
        # vanishes below degree h - 1
        for i in range(1, order - h + 2):
            term[h - 1 + i :] += x[i] * prev[h - 1 : order + 1 - i]
        term /= h
        yield term

