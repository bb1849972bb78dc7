"""Truncated one-variable series arithmetic, checked against hand series and
itself, and the bivariate chain-rule oracle of `acceptance` against the series.

The lab never expands exp as a series in time; `exp_terms` gives the terms
of exp(t x) for every t at once.  The exp recurrence below is their
reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmadamp.acceptance import (
    enumerate_partitions,
    faa_di_bruno_table,
    table_degree_sums,
    table_row,
)
from sigmadamp.jet2 import exp_terms, linear_series, mul, reciprocal, sqrt_series


def random_series(rng, order=4, lo=0.5, hi=2.0):
    x = rng.uniform(-1.0, 1.0, order + 1)
    # keep the constant term away from 0 so reciprocal/sqrt stay regular
    x[0] = rng.uniform(lo, hi)
    return x


def random_table(rng, order=4):
    """Triangular table of raw bivariate derivatives with a regular constant term."""
    table = [list(rng.uniform(-1.0, 1.0, order + 1 - j)) for j in range(order + 1)]
    table[0][0] = rng.uniform(0.5, 2.0)
    return table


def as_table(*triangles):
    """Triangles table[j][m] of one order as one oracle table, a column each."""
    order = len(triangles[0]) - 1
    table = np.zeros(((order + 1) * (order + 2) // 2, len(triangles)))
    for j in range(order + 1):
        for m in range(order + 1 - j):
            table[table_row(j, m)] = [tri[j][m] for tri in triangles]
    return table


def binomial_power(x, alpha):
    """x^alpha as sum_l binom(alpha, l) x0^(alpha - l) N^l, N the nilpotent part.

    A reference independent of the recurrences: only `mul` and the binomial
    series are involved.
    """
    nil = x.copy()
    nil[0] = 0.0
    out = np.zeros_like(x)
    power = linear_series(1.0, 0.0, len(x) - 1)
    coeff = 1.0
    for ell in range(len(x)):
        out = out + coeff * x[0] ** (alpha - ell) * power
        power = mul(power, nil)
        coeff *= (alpha - ell) / (ell + 1)
    return out


def exp_series(x):
    """exp(x) by its recurrence: y[0] = e^{x[0]}, y[d] = (1/d) sum_{i=1..d} i x[i] y[d-i]."""
    out = np.empty(x.shape)
    out[0] = np.exp(x[0])
    weighted = [i * x[i] for i in range(1, len(x))]
    for d in range(1, len(x)):
        acc = weighted[0] * out[d - 1]
        for i in range(1, d):
            acc = acc + weighted[i] * out[d - 1 - i]
        out[d] = acc / d
    return out


def exp_by_terms(x, t=1.0):
    """exp(t x) as the lab forms it: e^{t x[0]} sum_h t^h N^h/h!, N = x less its constant term."""
    nil = x.copy()
    nil[0] = 0.0
    total = np.zeros(x.shape)
    for h, term in enumerate(exp_terms(nil, linear_series(1.0, 0.0, len(x) - 1))):
        total = total + t**h * term
    return np.exp(t * x[0]) * total


def ln_series(x):
    """Logarithm by its recurrence: x y' = x', so d x0 y[d] = d x[d] - sum i y[i] x[d-i]."""
    out = np.empty(x.shape)
    out[0] = math.log(x[0])
    for d in range(1, len(x)):
        acc = d * x[d] - sum(i * out[i] * x[d - i] for i in range(1, d))
        out[d] = acc / (d * x[0])
    return out


# -- frozen series ----------------------------------------------------------


def test_reciprocal_of_one_plus_a_is_alternating_geometric():
    r = reciprocal(linear_series(1.0, 1.0, 5))
    for d in range(6):
        assert r[d] == pytest.approx((-1.0) ** d, rel=1e-14)


def test_sqrt_of_one_minus_four_b_matches_binomial_series():
    # (1-4 eps)^{1/2} = 1 - 2 eps - 2 eps^2 - 4 eps^3 - ...
    s = sqrt_series(linear_series(1.0, -4.0, 3))
    expected = {0: 1.0, 1: -2.0, 2: -2.0, 3: -4.0}
    for d, val in expected.items():
        assert s[d] == pytest.approx(val, rel=1e-14)


def test_exp_of_linear_jet_matches_hand_expansion():
    # e^{c + u a + v b} on a = b = eps: the degree-d coefficient is the shell
    # sum of e^c u^j v^m / (j! m!) over j + m = d, i.e. e^c (u + v)^d / d!
    c, u, v = 0.3, -0.7, 1.1
    for e in (exp_series(linear_series(c, u + v, 4)), exp_by_terms(linear_series(c, u + v, 4))):
        for d in range(5):
            shell = sum(
                math.exp(c) * u**j * v ** (d - j) / (math.factorial(j) * math.factorial(d - j))
                for j in range(d + 1)
            )
            assert e[d] == pytest.approx(shell, rel=1e-13)
            assert e[d] == pytest.approx(math.exp(c) * (u + v) ** d / math.factorial(d), rel=1e-13)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_exp_terms_give_the_exp_recurrence_at_every_time(seed):
    # exp(t x) = e^{t x0} sum_h t^h N^h/h! for every t, with the terms built
    # once: the closed time form the kernels evaluate per node
    rng = np.random.default_rng(seed)
    x = random_series(rng, order=6)
    for t in (0.0, 0.3, 1.0, 7.5):
        want = exp_series(t * x)
        assert np.allclose(exp_by_terms(x, t), want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


def test_exp_terms_vanish_below_their_power():
    # term h is x^h/h! times y, built from term h - 1 without the products
    # known to be zero; on the unit series, term 1 is x itself
    rng = np.random.default_rng(5)
    nil = random_series(rng, order=5)
    nil[0] = 0.0
    unit = linear_series(1.0, 0.0, 5)
    y = random_series(rng, order=5)
    assert np.array_equal(list(exp_terms(nil, unit))[1], nil)
    terms = list(exp_terms(nil, y))
    assert len(terms) == 6 and terms[0] is y
    power = unit
    for h, term in enumerate(terms):
        assert not term[:h].any()
        want = mul(power, y) / math.factorial(h)
        assert np.allclose(term, want, rtol=1e-13, atol=1e-15)
        power = mul(power, nil)
    with pytest.raises(ValueError, match="exp_terms needs a zero constant term"):
        list(exp_terms(linear_series(0.5, 1.0, 3), unit))


def test_series_broadcast_over_radial_nodes():
    # a (K + 1, nodes) array is K + 1 coefficient rows evaluated node by node
    rng = np.random.default_rng(3)
    x = np.stack([random_series(rng) for _ in range(6)], axis=1)
    y = np.stack([random_series(rng) for _ in range(6)], axis=1)
    nil = x.copy()
    nil[0] = 0.0
    xy, rx, sx = mul(x, y), reciprocal(x), sqrt_series(x)
    ex = np.stack(list(exp_terms(nil, y)))
    for i in range(6):
        assert np.array_equal(xy[:, i], mul(x[:, i], y[:, i]))
        assert np.array_equal(rx[:, i], reciprocal(x[:, i]))
        assert np.array_equal(sx[:, i], sqrt_series(x[:, i]))
        assert np.array_equal(ex[:, :, i], np.stack(list(exp_terms(nil[:, i], y[:, i]))))


# -- algebraic round trips --------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_mul_commutes_and_associates(seed):
    rng = np.random.default_rng(seed)
    x, y, z = (random_series(rng) for _ in range(3))
    assert np.allclose(mul(x, y), mul(y, x), rtol=1e-12, atol=1e-14)
    assert np.allclose(mul(mul(x, y), z), mul(x, mul(y, z)), rtol=1e-11, atol=1e-13)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_reciprocal_is_an_involution(seed):
    rng = np.random.default_rng(seed)
    x = random_series(rng)
    assert np.allclose(reciprocal(reciprocal(x)), x, rtol=1e-10, atol=1e-12)
    one = mul(x, reciprocal(x))
    assert one[0] == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.abs(one[1:]) < 1e-11)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sqrt_squares_back_and_matches_pow_half(seed):
    rng = np.random.default_rng(seed)
    x = random_series(rng)
    s = sqrt_series(x)
    assert np.allclose(mul(s, s), x, rtol=1e-10, atol=1e-12)
    assert np.allclose(s, binomial_power(x, 0.5), rtol=1e-11, atol=1e-13)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_exp_ln_round_trip(seed):
    rng = np.random.default_rng(seed)
    x = random_series(rng)
    assert np.allclose(exp_series(ln_series(x)), x, rtol=1e-10, atol=1e-12)
    assert np.allclose(exp_by_terms(ln_series(x)), x, rtol=1e-10, atol=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_exp_turns_sums_into_products(seed):
    rng = np.random.default_rng(seed)
    x, y = random_series(rng), random_series(rng)
    product = mul(exp_series(x), exp_series(y))
    assert np.allclose(exp_series(x + y), product, rtol=1e-10, atol=1e-12)
    product = mul(exp_by_terms(x), exp_by_terms(y))
    assert np.allclose(exp_by_terms(x + y), product, rtol=1e-10, atol=1e-12)


# -- combinatorial oracle ---------------------------------------------------


def test_partition_enumeration_small_cases():
    # a partition is a tuple of (multiplicity, b1, b2) blocks
    assert enumerate_partitions(1, 1, 1) == (((1, 1, 1),),)
    assert enumerate_partitions(1, 1, 2) == (((1, 0, 1), (1, 1, 0)),)

    # (2, 0) splits as one second derivative or two first derivatives
    orders = {
        tuple((b1, b2) for _, b1, b2 in part)
        for ell in (1, 2)
        for part in enumerate_partitions(2, 0, ell)
    }
    assert ((2, 0),) in orders
    assert ((1, 0),) in orders


def test_partition_block_counts_sum_to_ell():
    for j, m, ell in [(2, 1, 2), (3, 0, 3), (1, 2, 2), (2, 2, 3)]:
        for part in enumerate_partitions(j, m, ell):
            assert sum(a for a, _, _ in part) == ell
            assert sum(a * b1 for a, b1, _ in part) == j
            assert sum(a * b2 for a, _, b2 in part) == m


def test_chain_rule_on_reciprocal_of_scaled_variable():
    # d^2/da^2 of 1/(1 + c a) at 0 is 2 c^2
    c = 0.37
    inner = as_table([[0.0, 0.0, 0.0], [c, 0.0], [0.0]])  # raw derivatives of c*a
    outer = np.array([[1.0], [-1.0], [2.0]])  # derivatives of 1/(1+q) at q=0
    got = faa_di_bruno_table(outer, inner, 2)[table_row(2, 0), 0]
    assert got == pytest.approx(2.0 * c * c, rel=1e-14)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_chain_rule_agrees_with_series_exp_on_the_diagonal(seed):
    # exp has outer derivatives e^{g(0,0)} at every order; the partition sums
    # of exp(g), summed over each shell j + m = d, must land on the series
    # exp of g's diagonal restriction
    rng = np.random.default_rng(seed)
    table = as_table(random_table(rng, order=4))
    outer = np.full((5, 1), math.exp(table[0, 0]))
    composed = table_degree_sums(faa_di_bruno_table(outer, table, 4))[:, 0]
    diagonal = table_degree_sums(table)[:, 0]
    assert np.allclose(composed, exp_series(diagonal), rtol=1e-10, atol=1e-12)
    assert np.allclose(composed, exp_by_terms(diagonal), rtol=1e-10, atol=1e-12)


def _coeff_by_partitions(outer_derivs, inner_table, j, m):
    """One chain-rule entry by its own partition sum, scaling the inner table per block."""
    if j == 0 and m == 0:
        return outer_derivs[0]
    total = 0.0
    for ell in range(1, j + m + 1):
        part_sum = 0.0
        for part in enumerate_partitions(j, m, ell):
            prod = 1.0
            for a, b1, b2 in part:
                scaled = inner_table[b1][b2] / (math.factorial(b1) * math.factorial(b2))
                prod = prod * scaled**a / math.factorial(a)
            part_sum = part_sum + prod
        total = total + outer_derivs[ell] * part_sum
    return math.factorial(j) * math.factorial(m) * total


@pytest.mark.parametrize("order", range(6))
def test_chain_rule_table_matches_each_entry_bit_for_bit(order):
    # the table scales the inner table once and walks one partition plan for
    # all entries and draws; every entry of every draw must be the float the
    # per-entry sum gives, also when the inner table runs past the requested
    # order
    rng = np.random.default_rng(1000 + order)
    inners, outers = [], []
    for _ in range(4):
        inners.append(random_table(rng, order=5))
        outers.append(list(rng.uniform(-2.0, 2.0, order + 1)))
    composed = faa_di_bruno_table(np.array(outers).T, as_table(*inners), order)
    assert composed.shape == ((order + 1) * (order + 2) // 2, 4)
    for i, (outer, inner) in enumerate(zip(outers, inners)):
        for j in range(order + 1):
            for m in range(order + 1 - j):
                want = _coeff_by_partitions(outer, inner, j, m)
                assert composed[table_row(j, m), i] == want, (i, j, m)


# -- error paths ------------------------------------------------------------


def test_error_paths():
    with pytest.raises(ValueError, match="series order must be nonnegative"):
        linear_series(1.0, 0.0, -1)
    with pytest.raises(ValueError, match="series shapes differ"):
        mul(linear_series(1.0, 0.0, 2), linear_series(1.0, 0.0, 3))
    with pytest.raises(ValueError, match="reciprocal needs a nonzero constant term"):
        reciprocal(linear_series(0.0, 1.0, 4))
    with pytest.raises(ValueError, match="sqrt needs a positive constant term"):
        sqrt_series(linear_series(-1.0, 0.0, 4))
    with pytest.raises(ValueError, match="need outer derivatives up to order 3"):
        faa_di_bruno_table(np.ones((2, 1)), np.zeros((10, 1)), 3)
    with pytest.raises(ValueError, match="inner table order 2 below requested bi-order 3"):
        faa_di_bruno_table(np.ones((4, 1)), np.zeros((6, 1)), 3)
    with pytest.raises(ValueError, match="need j, m >= 0 and 1 <= ell <= j"):
        enumerate_partitions(1, 1, 3)
