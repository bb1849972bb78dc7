"""Truncated one-variable Taylor series, plus a bivariate chain-rule oracle.

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
Cauchy product, and `reciprocal`, `sqrt_series` and `exp_series` follow the
standard recurrences (Griewank and Walther, Evaluating Derivatives, 2nd ed.,
SIAM 2008, ch. 13); each costs O(K^2) whole-array operations, so a higher
order adds rows, not Python loops per node.

`enumerate_partitions` and `faa_di_bruno_table` evaluate the bivariate
higher-order chain rule by direct summation over multi-index partitions: the
table function scales the inner table once and walks one cached partition
plan per bi-order, and `faa_di_bruno_coeff` is a single entry of its table.
They share no code with the recurrences, so the derivative tables built from
them (`acceptance.kernel_tables`) are the independent oracle: their degree
sums must reproduce the lab's series coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


def exp_series(x: np.ndarray) -> np.ndarray:
    """exp(x): y[0] = e^{x[0]}, y[d] = (1/d) sum_{i=1..d} i x[i] y[d-i]."""
    out = np.empty(x.shape)
    out[0] = np.exp(x[0])
    weighted = [i * x[i] for i in range(1, len(x))]
    for d in range(1, len(x)):
        out[d] = _dot(weighted[:d], out[d - 1 :: -1]) / d
    return out


# ---------------------------------------------------------------------------
# Combinatorial chain rule (independent of the series recurrences above).


@dataclass(frozen=True)
class PartitionTriple:
    """One summand of the bivariate chain rule.

    mults[r] is the multiplicity of the derivative bi-order orders[r].
    Invariants: every multiplicity is positive, orders are strictly
    increasing in lexicographic order, and (0, 0) never appears.
    """

    mults: tuple[int, ...]
    orders: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def enumerate_partitions(j: int, m: int, ell: int) -> tuple[PartitionTriple, ...]:
    """All partitions of the bi-order (j, m) into ell blocks of bi-orders.

    A partition assigns positive multiplicities a_r to distinct bi-orders
    (b1_r, b2_r) != (0, 0) such that sum a_r = ell, sum a_r b1_r = j and
    sum a_r b2_r = m.  Bi-orders are listed in strictly increasing
    lexicographic order, and the output order is deterministic.
    """
    if j < 0 or m < 0 or ell < 1 or ell > j + m:
        raise ValueError(f"need j, m >= 0 and 1 <= ell <= j + m, got ({j}, {m}, {ell})")
    pairs = [(b1, b2) for b1 in range(j + 1) for b2 in range(m + 1) if (b1, b2) != (0, 0)]
    found: list[PartitionTriple] = []

    def rec(start, need_l, need_j, need_m, acc):
        if need_l == 0:
            if need_j == 0 and need_m == 0:
                found.append(
                    PartitionTriple(
                        mults=tuple(a for a, _, _ in acc),
                        orders=tuple((b1, b2) for _, b1, b2 in acc),
                    )
                )
            return
        for i in range(start, len(pairs)):
            b1, b2 = pairs[i]
            a_max = need_l
            if b1 > 0:
                a_max = min(a_max, need_j // b1)
            if b2 > 0:
                a_max = min(a_max, need_m // b2)
            for a in range(1, a_max + 1):
                rec(i + 1, need_l - a, need_j - a * b1, need_m - a * b2, acc + [(a, b1, b2)])

    rec(0, ell, j, m, [])
    return tuple(found)


@lru_cache(maxsize=None)
def _partition_plan(j: int, m: int) -> tuple:
    """Per ell = 1 .. j + m, the partitions of (j, m) into ell blocks as (a, b1, b2, a!) tuples."""
    return tuple(
        tuple(
            tuple((a, b1, b2, math.factorial(a)) for a, (b1, b2) in zip(part.mults, part.orders))
            for part in enumerate_partitions(j, m, ell)
        )
        for ell in range(1, j + m + 1)
    )


def faa_di_bruno_table(outer_derivs, inner_table, order: int) -> list[list]:
    """Raw derivatives d^{j+m} (f o g) / da^j db^m at (0, 0) for j + m <= order.

    Returned as a triangular table, entry [j][m], each by partition sum.
    outer_derivs[l] must be f^(l) evaluated at g(0, 0) for l = 0 .. order.
    inner_table is triangular: inner_table[b1][b2] = d^{b1+b2} g / da^b1 db^b2
    at (0, 0) for b1 + b2 <= its order.
    """
    if len(outer_derivs) < order + 1:
        raise ValueError(
            f"need outer derivatives up to order {order}, got {len(outer_derivs) - 1}"
        )
    if len(inner_table) - 1 < order:
        raise ValueError(
            f"inner table order {len(inner_table) - 1} below requested bi-order {order}"
        )
    scaled = [
        [
            inner_table[b1][b2] / (math.factorial(b1) * math.factorial(b2))
            for b2 in range(order - b1 + 1)
        ]
        for b1 in range(order + 1)
    ]
    out = []
    for j in range(order + 1):
        row = []
        for m in range(order - j + 1):
            if j == 0 and m == 0:
                row.append(outer_derivs[0])
                continue
            total = 0.0
            for ell, parts in enumerate(_partition_plan(j, m), start=1):
                part_sum = 0.0
                for part in parts:
                    prod = 1.0
                    for a, b1, b2, a_fact in part:
                        prod = prod * scaled[b1][b2] ** a / a_fact
                    part_sum = part_sum + prod
                total = total + outer_derivs[ell] * part_sum
            row.append(math.factorial(j) * math.factorial(m) * total)
        out.append(row)
    return out


def faa_di_bruno_coeff(outer_derivs, inner_table, j: int, m: int):
    """Raw derivative d^{j+m} (f o g) / da^j db^m at (0, 0): one entry of `faa_di_bruno_table`."""
    return faa_di_bruno_table(outer_derivs, inner_table, j + m)[j][m]
