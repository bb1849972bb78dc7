"""Truncated bivariate Taylor arithmetic, checked against hand series and itself."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmadamp.jet2 import (
    InsufficientOuterDerivs,
    Jet2,
    OrderMismatch,
    OrderTooSmall,
    SingularConstantTerm,
    add,
    allclose,
    enumerate_partitions,
    evaluate,
    exp_jet,
    faa_di_bruno_coeff,
    jet_const,
    ln_jet,
    mul,
    pow_real,
    reciprocal,
    scale,
    sqrt_jet,
)


def linear_jet(c0, ca, cb, order=4):
    x = jet_const(c0, order)
    x.coeff[1][0] = ca
    x.coeff[0][1] = cb
    return x


def random_jet(rng, order=4, lo=0.5, hi=2.0):
    x = Jet2(order)
    for j, m in x.indices():
        x.coeff[j][m] = rng.uniform(-1.0, 1.0)
    # keep the constant term away from 0 so reciprocal/sqrt stay regular
    x.coeff[0][0] = rng.uniform(lo, hi)
    return x


# -- frozen series ----------------------------------------------------------


def test_reciprocal_of_one_plus_a_is_alternating_geometric():
    x = linear_jet(1.0, 1.0, 0.0, order=5)
    r = reciprocal(x)
    for j in range(6):
        assert r.coeff[j][0] == pytest.approx((-1.0) ** j, rel=1e-14)
    for j, m in r.indices():
        if m > 0:
            assert r.coeff[j][m] == 0.0


def test_sqrt_of_one_minus_four_b_matches_binomial_series():
    # (1-4b)^{1/2} = 1 - 2b - 2b^2 - 4b^3 - ...
    x = linear_jet(1.0, 0.0, -4.0, order=3)
    s = sqrt_jet(x)
    expected = {0: 1.0, 1: -2.0, 2: -2.0, 3: -4.0}
    for m, val in expected.items():
        assert s.coeff[0][m] == pytest.approx(val, rel=1e-14)


def test_exp_of_linear_jet_matches_hand_expansion():
    # e^{c + ua + vb}: coeff[j][m] = e^c u^j v^m / (j! m!)
    c, u, v = 0.3, -0.7, 1.1
    e = exp_jet(linear_jet(c, u, v, order=4))
    for j, m in e.indices():
        want = math.exp(c) * u**j * v**m / (math.factorial(j) * math.factorial(m))
        assert e.coeff[j][m] == pytest.approx(want, rel=1e-13)


def test_evaluate_sums_the_truncated_polynomial():
    x = linear_jet(2.0, 3.0, -1.0, order=2)
    x.coeff[1][1] = 0.5
    assert evaluate(x, 1.0, 1.0) == pytest.approx(2.0 + 3.0 - 1.0 + 0.5)
    assert evaluate(x, 0.0, 0.0) == pytest.approx(2.0)
    assert evaluate(x, 2.0, -1.0) == pytest.approx(2.0 + 6.0 + 1.0 - 1.0)


# -- algebraic round trips --------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_mul_commutes_and_associates(seed):
    rng = np.random.default_rng(seed)
    x, y, z = (random_jet(rng) for _ in range(3))
    assert allclose(mul(x, y), mul(y, x), rtol=1e-12, atol=1e-14)
    assert allclose(mul(mul(x, y), z), mul(x, mul(y, z)), rtol=1e-11, atol=1e-13)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_reciprocal_is_an_involution(seed):
    rng = np.random.default_rng(seed)
    x = random_jet(rng)
    assert allclose(reciprocal(reciprocal(x)), x, rtol=1e-10, atol=1e-12)
    one = mul(x, reciprocal(x))
    assert one.coeff[0][0] == pytest.approx(1.0, rel=1e-12)
    assert all(abs(one.coeff[j][m]) < 1e-11 for j, m in one.indices() if (j, m) != (0, 0))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sqrt_squares_back_and_matches_pow_half(seed):
    rng = np.random.default_rng(seed)
    x = random_jet(rng)
    s = sqrt_jet(x)
    assert allclose(mul(s, s), x, rtol=1e-10, atol=1e-12)
    assert allclose(s, pow_real(x, 0.5), rtol=1e-11, atol=1e-13)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_exp_ln_round_trip(seed):
    rng = np.random.default_rng(seed)
    x = random_jet(rng)
    assert allclose(exp_jet(ln_jet(x)), x, rtol=1e-10, atol=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_exp_turns_sums_into_products(seed):
    rng = np.random.default_rng(seed)
    x, y = random_jet(rng), random_jet(rng)
    assert allclose(exp_jet(add(x, y)), mul(exp_jet(x), exp_jet(y)), rtol=1e-10, atol=1e-12)


def test_scale_and_add_are_linear():
    rng = np.random.default_rng(7)
    x, y = random_jet(rng), random_jet(rng)
    lhs = scale(add(x, y), 2.5)
    rhs = add(scale(x, 2.5), scale(y, 2.5))
    assert allclose(lhs, rhs, rtol=1e-14)


# -- combinatorial oracle ---------------------------------------------------


def test_partition_enumeration_small_cases():
    only = enumerate_partitions(1, 1, 1)
    assert len(only) == 1
    assert only[0].mults == (1,)
    assert only[0].orders == ((1, 1),)

    two = enumerate_partitions(1, 1, 2)
    assert len(two) == 1
    assert two[0].mults == (1, 1)
    assert two[0].orders == ((0, 1), (1, 0))

    # (2, 0) splits as one second derivative or two first derivatives
    pairs = {p.orders for p in enumerate_partitions(2, 0, 1)} | {
        p.orders for p in enumerate_partitions(2, 0, 2)
    }
    assert ((2, 0),) in pairs
    assert ((1, 0),) in pairs


def test_partition_block_counts_sum_to_ell():
    for j, m, ell in [(2, 1, 2), (3, 0, 3), (1, 2, 2), (2, 2, 3)]:
        for part in enumerate_partitions(j, m, ell):
            assert sum(part.mults) == ell
            assert sum(a * b1 for a, (b1, _) in zip(part.mults, part.orders)) == j
            assert sum(a * b2 for a, (_, b2) in zip(part.mults, part.orders)) == m


def test_chain_rule_on_reciprocal_of_scaled_variable():
    # d^2/da^2 of 1/(1 + c a) at 0 is 2 c^2
    c = 0.37
    inner = linear_jet(0.0, c, 0.0, order=2)
    outer = [1.0, -1.0, 2.0]  # derivatives of 1/(1+q) at q=0
    got = faa_di_bruno_coeff(outer, inner, 2, 0)
    assert got == pytest.approx(2.0 * c * c, rel=1e-14)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_chain_rule_agrees_with_horner_composition_for_exp(seed):
    # exp has outer derivatives e^{c00} at every order, so the partition sum
    # must land on j! m! times the jet coefficient produced by exp_jet.
    rng = np.random.default_rng(seed)
    x = random_jet(rng, order=4)
    e = exp_jet(x)
    outer = [math.exp(x.coeff[0][0])] * 5
    for j, m in x.indices():
        raw = faa_di_bruno_coeff(outer, x, j, m)
        want = e.coeff[j][m] * math.factorial(j) * math.factorial(m)
        assert raw == pytest.approx(want, rel=1e-10, abs=1e-12)


# -- error paths ------------------------------------------------------------


def test_error_paths():
    with pytest.raises(OrderTooSmall):
        Jet2(-1)
    with pytest.raises(OrderMismatch):
        add(Jet2(2), Jet2(3))
    with pytest.raises(SingularConstantTerm):
        reciprocal(linear_jet(0.0, 1.0, 0.0))
    with pytest.raises(SingularConstantTerm):
        sqrt_jet(linear_jet(-1.0, 0.0, 0.0))
    with pytest.raises(SingularConstantTerm):
        ln_jet(linear_jet(0.0, 1.0, 1.0))
    with pytest.raises(InsufficientOuterDerivs):
        faa_di_bruno_coeff([1.0, 1.0], linear_jet(0.0, 1.0, 0.0, order=3), 2, 1)
    with pytest.raises(ValueError):
        enumerate_partitions(1, 1, 3)
