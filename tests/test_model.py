"""Parameter validation, decay exponents, and discriminant-band geometry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmadamp.model import (
    CaseMismatch,
    DimensionTooSmall,
    ModelParams,
    OrderingViolation,
    RateCase,
    case_for,
    delta,
    discriminant,
    eps_star,
    error_exponent,
    mode_decay_rate,
    oscillation_band,
    rate_step,
    slow_rate_radius,
    validate,
)

POS = RateCase.POSITIVE_SIGMA1
ZERO = RateCase.ZERO_SIGMA1


def test_case_detection(fractional_params, frictional_params):
    assert case_for(fractional_params) is POS
    assert case_for(frictional_params) is ZERO


def test_validate_accepts_reference_configurations(fractional_params, frictional_params):
    validate(fractional_params, POS)
    validate(frictional_params, ZERO)


@pytest.mark.parametrize(
    "params, case, error",
    [
        (ModelParams(3, 1.0, 0.5, 0.75), POS, OrderingViolation),  # sigma1 at sigma/2
        (ModelParams(3, 1.0, 0.25, 0.5), POS, OrderingViolation),  # sigma2 at sigma/2
        (ModelParams(3, 1.0, 0.25, 1.25), POS, OrderingViolation),  # sigma2 above sigma
        (ModelParams(3, 0.9, 0.25, 0.75), POS, OrderingViolation),  # sigma below 1
        (ModelParams(3, 1.0, 0.25, 0.75, s=-0.5), POS, OrderingViolation),
        (ModelParams(0, 1.0, 0.25, 0.75), POS, OrderingViolation),
        (ModelParams(1, 1.0, 0.25, 0.75), POS, DimensionTooSmall),  # n = 4 sigma1
        (ModelParams(1, 1.0, 0.0, 0.8), POS, CaseMismatch),
        (ModelParams(3, 1.0, 0.25, 0.75), ZERO, CaseMismatch),
        (ModelParams(3, 1.0, 0.25, 0.75, s=math.nan), POS, OrderingViolation),
        (ModelParams(3, 1.0, 0.25, 0.75, s=math.inf), POS, OrderingViolation),
    ],
)
def test_validate_rejects_broken_parameter_tuples(params, case, error):
    with pytest.raises(error):
        validate(params, case)


def test_delta_examples():
    assert delta(ModelParams(3, 1.0, 0.25, 0.75)) == pytest.approx(0.5)
    assert delta(ModelParams(3, 2.0, 0.5, 1.2)) == pytest.approx(0.7)
    assert delta(ModelParams(1, 1.0, 0.0, 0.8)) == pytest.approx(0.8)


def test_rate_steps(fractional_params, frictional_params):
    assert rate_step(fractional_params, POS) == pytest.approx(Fraction(2, 3))
    assert rate_step(frictional_params, ZERO) == pytest.approx(0.8)


def test_error_exponents_fractional(fractional_params):
    want = [Fraction(-2, 3), Fraction(-4, 3), Fraction(-2, 1)]
    for k, target in enumerate(want):
        assert error_exponent(fractional_params, k, POS) == pytest.approx(float(target))


def test_error_exponents_frictional(frictional_params):
    assert error_exponent(frictional_params, 1, ZERO) == pytest.approx(-1.05)
    assert error_exponent(frictional_params, 2, ZERO) == pytest.approx(-1.85)


def test_weight_shifts_every_exponent_uniformly(fractional_params):
    heavy = ModelParams(3, 1.0, 0.25, 0.75, s=0.5)
    for k in range(3):
        gap = error_exponent(heavy, k, POS) - error_exponent(fractional_params, k, POS)
        assert gap == pytest.approx(-1.0 / 3.0)


def test_exponent_steps_are_exact(fractional_params, frictional_params):
    for p, case in [(fractional_params, POS), (frictional_params, ZERO)]:
        step = rate_step(p, case)
        for k in range(3):
            drop = error_exponent(p, k, case) - error_exponent(p, k + 1, case)
            assert drop == pytest.approx(step, rel=1e-14)


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_rate_comparison_inequality(seed):
    # the sigma1-normalized rate must sit strictly below the (sigma-sigma1)
    # rate whenever n > 4 sigma1; this is what makes the profile terms with
    # the fast exponential ignorable at leading order
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(1.0, 2.0)
    sigma1 = rng.uniform(0.05, 0.45) * sigma
    sigma2 = rng.uniform(0.55, 1.0) * sigma
    n = int(np.ceil(4.0 * sigma1)) + rng.integers(1, 4)
    s = float(rng.uniform(0.0, 1.0))
    p = ModelParams(int(n), sigma, sigma1, sigma2, s)
    validate(p, POS)
    d = delta(p)
    for k in range(3):
        x = p.sigma - p.sigma1
        main = -p.n / (4 * x) + p.sigma1 / x - p.s / (2 * x) - k * d / x
        other = -p.n / (4 * p.sigma1) + 1.0 - p.s / (2 * p.sigma1) - k * d / p.sigma1
        assert main > other


# -- discriminant and oscillation band ---------------------------------------


def test_discriminant_values():
    p = ModelParams(3, 1.0, 0.0, 1.0)
    # (1 + r^2)^2 - 4 r^2 = (1 - r^2)^2
    assert discriminant(p, 0.5, 1.0, 1.0) == pytest.approx(0.5625, rel=1e-14)
    assert discriminant(p, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    q = ModelParams(3, 1.0, 0.25, 0.75)
    assert discriminant(q, 1.0, 1.0, 0.0) == pytest.approx(4.0, rel=1e-14)


def test_band_is_empty_for_perfect_square_discriminants(fractional_params):
    # sigma1 + sigma2 = sigma makes the symbol a perfect square in sqrt(r):
    # (r^{0.5} + r^{1.5})^2 - 4 r^2 = r (1 - r)^2 >= 0, so the complex-root
    # set is empty and the only degeneracy is the double root at r = 1
    assert oscillation_band(ModelParams(3, 1.0, 0.0, 1.0)) is None
    assert oscillation_band(fractional_params) is None
    assert eps_star(fractional_params) == pytest.approx(0.5)


def test_band_of_frictional_configuration(frictional_params):
    band = oscillation_band(frictional_params)
    assert band is not None
    lo, hi = band
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(1.9206486159732264, rel=1e-12)
    mid = 0.5 * (lo + hi)
    assert discriminant(frictional_params, mid, 1.0, 1.0) < 0.0
    # endpoints are discriminant zeros
    assert abs(discriminant(frictional_params, lo, 1.0, 1.0)) < 1e-10
    assert abs(discriminant(frictional_params, hi, 1.0, 1.0)) < 1e-10
    assert eps_star(frictional_params) == pytest.approx(0.5, rel=1e-12)


def test_band_at_viscoelastic_endpoint():
    # sigma2 = sigma: r^{0.5} + r^2 < 2r holds on ((3-sqrt(5))/2, 1)
    p = ModelParams(3, 1.0, 0.25, 1.0)
    band = oscillation_band(p)
    assert band is not None
    lo, hi = band
    assert lo == pytest.approx(0.38196601125010515, rel=1e-10)
    assert hi == pytest.approx(1.0, abs=1e-9)
    assert eps_star(p) == pytest.approx(lo / 2.0, rel=1e-12)


def test_mode_decay_rate_is_continuous_and_positive(frictional_params):
    r = np.geomspace(1e-3, 10.0, 200)
    rates = mode_decay_rate(frictional_params, r)
    assert np.all(rates > 0.0)
    assert np.all(np.isfinite(rates))
    # no jump bigger than the local grid scale across the band edges
    assert np.max(np.abs(np.diff(np.log(rates)))) < 0.2


def test_slow_rate_radius_is_the_first_crossing(fractional_params, frictional_params):
    for p, frozen in [
        (fractional_params, 0.711378660898011),
        (frictional_params, 0.8255214806173817),
    ]:
        r = slow_rate_radius(p, 0.6)
        assert r == pytest.approx(frozen, rel=1e-10)
        assert mode_decay_rate(p, r) == pytest.approx(0.6, rel=1e-9)
        assert mode_decay_rate(p, 0.9 * r) < 0.6


def test_slow_rate_radius_rejects_nonpositive_target(fractional_params):
    with pytest.raises(ValueError):
        slow_rate_radius(fractional_params, 0.0)
