"""Truncated bivariate Taylor jets plus a combinatorial chain-rule oracle.

A jet of order K stores the scaled derivatives

    coeff[j][m] = (1/(j! m!)) * d^{j+m} f / da^j db^m   at (a, b) = (0, 0)

for every j + m <= K.  Arithmetic is exact truncation: no operation reads or
writes past total degree K, so algebraic identities such as
mul(x, reciprocal(x)) = 1 hold exactly inside the retained degrees, up to
float rounding.

Coefficients may be floats or numpy arrays of one common shape.  Every
operation broadcasts, which lets a single jet computation run over a whole
radial grid at once.

`enumerate_partitions` and `faa_di_bruno_coeff` evaluate the bivariate
higher-order chain rule by direct summation over multi-index partitions.
They share no code with the Horner-style composition used by the analytic
jet functions, so they can serve as an independent oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Orders above this are outside the double-precision comfort zone for the
# compositions built on top of these jets.
MAX_ORDER = 8


class JetError(ValueError):
    """Base class for jet arithmetic failures."""


class OrderTooSmall(JetError):
    pass


class OrderMismatch(JetError):
    pass


class SingularConstantTerm(JetError):
    """Analytic operation applied outside its domain at the base point."""


class InsufficientOuterDerivs(JetError):
    pass


class Jet2:
    """Bivariate Taylor jet of fixed total order around (a, b) = (0, 0).

    coeff is a triangular list of rows: coeff[j][m] exists only for
    j + m <= order.  Entries are floats or numpy arrays of a shared shape.
    """

    __slots__ = ("order", "coeff")

    def __init__(self, order: int, coeff=None):
        if order < 0:
            raise OrderTooSmall(f"jet order must be nonnegative, got {order}")
        if order > MAX_ORDER:
            raise JetError(f"jet order {order} exceeds the supported maximum {MAX_ORDER}")
        self.order = order
        if coeff is None:
            coeff = [[0.0] * (order + 1 - j) for j in range(order + 1)]
        self.coeff = coeff

    def indices(self):
        for j in range(self.order + 1):
            for m in range(self.order + 1 - j):
                yield j, m

    def copy(self) -> "Jet2":
        return Jet2(self.order, [row[:] for row in self.coeff])

    def __repr__(self):
        entries = ", ".join(f"({j},{m})={self.coeff[j][m]!r}" for j, m in self.indices())
        return f"Jet2(order={self.order}, {entries})"


def _check_same_order(x: Jet2, y: Jet2) -> None:
    if x.order != y.order:
        raise OrderMismatch(f"jet orders differ: {x.order} vs {y.order}")


def jet_const(value, order: int) -> Jet2:
    out = Jet2(order)
    out.coeff[0][0] = value
    return out


def add(x: Jet2, y: Jet2) -> Jet2:
    _check_same_order(x, y)
    out = Jet2(x.order)
    for j, m in x.indices():
        out.coeff[j][m] = x.coeff[j][m] + y.coeff[j][m]
    return out


def scale(x: Jet2, c) -> Jet2:
    out = Jet2(x.order)
    for j, m in x.indices():
        out.coeff[j][m] = c * x.coeff[j][m]
    return out


def mul(x: Jet2, y: Jet2) -> Jet2:
    """Truncated Cauchy product.

    Terms are grouped into swap-symmetric pairs before accumulation, so the
    result is bitwise identical under operand exchange.
    """
    _check_same_order(x, y)
    K = x.order
    out = Jet2(K)
    xc = x.coeff
    yc = y.coeff
    for J in range(K + 1):
        for M in range(K + 1 - J):
            s = 0.0
            for j1 in range(J + 1):
                j2 = J - j1
                for m1 in range(M + 1):
                    m2 = M - m1
                    if (j1, m1) > (j2, m2):
                        continue
                    if j1 == j2 and m1 == m2:
                        s = s + xc[j1][m1] * yc[j1][m1]
                    else:
                        s = s + (xc[j1][m1] * yc[j2][m2] + xc[j2][m2] * yc[j1][m1])
            out.coeff[J][M] = s
    return out


def evaluate(x: Jet2, da=1.0, db=1.0):
    """Value of the truncated Taylor polynomial at increments (da, db)."""
    pa = [1.0]
    pb = [1.0]
    for _ in range(x.order):
        pa.append(pa[-1] * da)
        pb.append(pb[-1] * db)
    total = 0.0
    for j, m in x.indices():
        total = total + x.coeff[j][m] * pa[j] * pb[m]
    return total


def _compose(x: Jet2, outer) -> Jet2:
    """Horner evaluation of sum_l outer[l] * N^l with N the nilpotent part of x.

    outer[l] must be the scaled Taylor coefficient f^(l)(c00) / l!.  N has a
    zero constant term, so N^(K+1) vanishes and the Horner loop is exact.
    """
    K = x.order
    nil = x.copy()
    nil.coeff[0][0] = nil.coeff[0][0] * 0.0
    acc = jet_const(outer[K], K)
    for l in range(K - 1, -1, -1):
        acc = mul(acc, nil)
        acc.coeff[0][0] = acc.coeff[0][0] + outer[l]
    return acc


def reciprocal(x: Jet2) -> Jet2:
    c0 = x.coeff[0][0]
    if np.any(np.asarray(c0) == 0.0):
        raise SingularConstantTerm("reciprocal needs a nonzero constant term")
    outer = [1.0 / c0]
    for _ in range(x.order):
        outer.append(-outer[-1] / c0)
    return _compose(x, outer)


def sqrt_jet(x: Jet2) -> Jet2:
    c0 = x.coeff[0][0]
    if np.any(np.asarray(c0) <= 0.0):
        raise SingularConstantTerm("sqrt needs a positive constant term")
    outer = [np.sqrt(c0)]
    for l in range(1, x.order + 1):
        outer.append(outer[-1] * ((1.5 - l) / l) / c0)
    return _compose(x, outer)


def exp_jet(x: Jet2) -> Jet2:
    outer = [np.exp(x.coeff[0][0])]
    for l in range(1, x.order + 1):
        outer.append(outer[-1] / l)
    return _compose(x, outer)


def ln_jet(x: Jet2) -> Jet2:
    c0 = x.coeff[0][0]
    if np.any(np.asarray(c0) <= 0.0):
        raise SingularConstantTerm("ln needs a positive constant term")
    outer = [np.log(c0)]
    if x.order >= 1:
        outer.append(1.0 / c0)
    for l in range(2, x.order + 1):
        outer.append(-outer[-1] * ((l - 1) / l) / c0)
    return _compose(x, outer)


def pow_real(x: Jet2, alpha: float) -> Jet2:
    c0 = x.coeff[0][0]
    if np.any(np.asarray(c0) <= 0.0):
        raise SingularConstantTerm("real power needs a positive constant term")
    outer = [np.asarray(c0) ** alpha if isinstance(c0, np.ndarray) else c0**alpha]
    for l in range(1, x.order + 1):
        outer.append(outer[-1] * ((alpha - l + 1) / l) / c0)
    return _compose(x, outer)


def allclose(x: Jet2, y: Jet2, rtol=1e-12, atol=0.0) -> bool:
    _check_same_order(x, y)
    for j, m in x.indices():
        if not np.allclose(x.coeff[j][m], y.coeff[j][m], rtol=rtol, atol=atol):
            return False
    return True


# ---------------------------------------------------------------------------
# Combinatorial chain rule (independent of the Horner composition above).


@dataclass(frozen=True)
class PartitionTriple:
    """One summand of the bivariate chain rule.

    mults[r] is the multiplicity of the derivative bi-order orders[r].
    Invariants: every multiplicity is positive, orders are strictly
    increasing in lexicographic order, and (0, 0) never appears.
    """

    mults: tuple[int, ...]
    orders: tuple[tuple[int, int], ...]

    @property
    def block_count(self) -> int:
        return len(self.mults)


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


def faa_di_bruno_coeff(outer_derivs, inner: Jet2, j: int, m: int):
    """Raw derivative d^{j+m} (f o g) / da^j db^m at (0, 0) by partition sum.

    outer_derivs[l] must be f^(l) evaluated at g(0, 0) for l = 0 .. j + m.
    The inner jet supplies the scaled derivatives of g; the result uses the
    identity (1/(b1! b2!)) d^{b1+b2} g = coeff[b1][b2].
    """
    if j == 0 and m == 0:
        if len(outer_derivs) < 1:
            raise InsufficientOuterDerivs("need the outer value f(g(0, 0))")
        return outer_derivs[0]
    if len(outer_derivs) < j + m + 1:
        raise InsufficientOuterDerivs(
            f"need outer derivatives up to order {j + m}, got {len(outer_derivs) - 1}"
        )
    if inner.order < j + m:
        raise OrderMismatch(f"inner jet order {inner.order} below requested bi-order {j + m}")
    total = 0.0
    for ell in range(1, j + m + 1):
        part_sum = 0.0
        for part in enumerate_partitions(j, m, ell):
            prod = 1.0
            for a, (b1, b2) in zip(part.mults, part.orders):
                prod = prod * inner.coeff[b1][b2] ** a / math.factorial(a)
            part_sum = part_sum + prod
        total = total + outer_derivs[ell] * part_sum
    return math.factorial(j) * math.factorial(m) * total
