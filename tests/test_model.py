"""Parameter validation, decay exponents, and discriminant-band geometry."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmadamp.model import (
    ModelError,
    ModelParams,
    RateCase,
    _bisect_edge,
    case_for,
    check_radius,
    delta,
    eps_star,
    error_exponent,
    error_radius,
    mode_decay_rate,
    mode_symbols,
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
    "params, case, match",
    [
        (ModelParams(3, 1.0, 0.5, 0.75), POS, "need 0 <= sigma1 < sigma/2"),
        (ModelParams(3, 1.0, 0.25, 0.5), POS, "need sigma/2 < sigma2 <= sigma"),
        (ModelParams(3, 1.0, 0.25, 1.25), POS, "need sigma/2 < sigma2 <= sigma"),
        (ModelParams(3, 0.9, 0.25, 0.75), POS, "sigma must be >= 1"),
        (ModelParams(3, 1.0, 0.25, 0.75, s=-0.5), POS, "weight s must be finite and >= 0"),
        (ModelParams(0, 1.0, 0.25, 0.75), POS, "n must be a positive integer"),
        (ModelParams(1, 1.0, 0.25, 0.75), POS, r"dim > 4\*sigma1"),
        (ModelParams(1, 1.0, 0.0, 0.8), POS, "requires sigma1 > 0"),
        (ModelParams(3, 1.0, 0.25, 0.75), ZERO, "requires sigma1 = 0"),
        (ModelParams(3, 1.0, 0.25, 0.75, s=math.nan), POS, "weight s must be finite and >= 0"),
        (ModelParams(3, 1.0, 0.25, 0.75, s=math.inf), POS, "weight s must be finite and >= 0"),
        (ModelParams(3.0, 1.0, 0.25, 0.75), POS, "n must be a positive integer"),
        (ModelParams(True, 1.0, 0.0, 0.8), ZERO, "n must be a positive integer"),
        (ModelParams(237, 1.0, 0.25, 0.75), POS, "overflows the radial weight"),
        (ModelParams(309, 1.0, 0.0, 0.8), ZERO, "overflows the radial weight"),
        (ModelParams(186, 1.0, 0.3, 0.8), POS, "overflows the radial weight"),
    ],
    ids=[
        "sigma1-at-half-sigma",
        "sigma2-at-half-sigma",
        "sigma2-above-sigma",
        "sigma-below-1",
        "negative-s",
        "dim-0",
        "dim-at-4-sigma1",
        "positive-case-zero-sigma1",
        "zero-case-positive-sigma1",
        "nan-s",
        "infinite-s",
        "integral-float-dim",
        "bool-dim",
        "dim-overflows-radius-20",
        "dim-overflows-radius-10",
        "dim-overflows-band-radius",
    ],
)
def test_validate_rejects_broken_parameter_tuples(params, case, match):
    with pytest.raises(ModelError, match=match):
        validate(params, case)


def test_dimension_bound_follows_the_error_radius():
    # the largest dims whose weight r^(n-1) stays finite out to error_radius
    for p, radius in (
        (ModelParams(236, 1.0, 0.25, 0.75), 20.0),
        (ModelParams(308, 1.0, 0.0, 0.8), 10.0),
        (ModelParams(185, 1.0, 0.3, 0.8), 10.0 / eps_star(ModelParams(3, 1.0, 0.3, 0.8))),
    ):
        assert error_radius(p) == radius
        validate(p, case_for(p))
        with pytest.raises(ModelError, match="overflows the radial weight"):
            check_radius(replace(p, n=p.n + 1), radius)


@pytest.mark.parametrize(
    "p, match",
    [
        (ModelParams(400, 100.0, 0.0, 78.0, s=400.0), "dim 400 overflows the radial weight"),
        (ModelParams(3, 100.0, 0.0, 78.0, s=400.0), "weight s=400.0 overflows r"),
        (ModelParams(3, 100.0, 0.0, 78.0), "sigma2=78.0 overflows the mode symbol"),
    ],
    ids=["dim-first", "then-weight", "then-symbols"],
)
def test_radius_check_names_the_first_overflow(p, match):
    # at radius 10 each of n, s and 4 sigma2 times ln 10 is past ln(DBL_MAX);
    # the radial weight is named before r^s, and r^s before the mode symbols
    with pytest.raises(ModelError, match=match):
        check_radius(p, 10.0)


@pytest.mark.parametrize(
    "sigma1, radius, below, above",
    [(0.0, 10.0, 308.25, 308.26), (0.25, 20.0, 236.93, 236.94)],
    ids=["zero-sigma1", "positive-sigma1"],
)
def test_weight_bound_follows_the_error_radius(sigma1, radius, below, above):
    # r^s must stay a finite double out to error_radius:
    # s ln(radius) < ln(DBL_MAX) = 709.78
    ok = ModelParams(3, 1.0, sigma1, 0.75, below)
    bad = ModelParams(3, 1.0, sigma1, 0.75, above)
    assert error_radius(ok) == error_radius(bad) == radius
    validate(ok, case_for(ok))
    assert np.isfinite(radius**below)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match=rf"weight s={above} overflows r\^s out to radius {radius:g}"):
            validate(bad, case_for(bad))
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.float64(radius) ** above)


@pytest.mark.parametrize(
    "sigma1, radius, below, above",
    [(0.0, 10.0, 77.06, 77.07), (0.5, 20.0, 59.23, 59.24)],
    ids=["zero-sigma1", "positive-sigma1"],
)
def test_symbol_bound_follows_the_error_radius(sigma1, radius, below, above):
    # A^2 ~ r^(4 sigma2) must stay a finite double out to error_radius:
    # 4 sigma2 ln(radius) < ln(DBL_MAX) = 709.78
    ok, bad = ModelParams(3, 100.0, sigma1, below), ModelParams(3, 100.0, sigma1, above)
    assert error_radius(ok) == error_radius(bad) == radius
    validate(ok, case_for(ok))
    assert all(np.isfinite(mode_symbols(ok, radius)))
    with warnings.catch_warnings():
        # refused before any symbol overflows
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match=r"overflows the mode symbol A\^2 ~ r\^\(4\*sigma2\)"):
            validate(bad, case_for(bad))
    with np.errstate(over="ignore"):
        assert not np.isfinite(mode_symbols(bad, radius)[2])


def test_eps_star_reads_the_band_only_below_1():
    for p in (
        ModelParams(3, 1.0, 0.25, 0.75),
        ModelParams(1, 1.0, 0.0, 0.8),
        ModelParams(3, 1.0, 0.3, 0.8),
        ModelParams(3, 2.0, 0.1, 1.2),
        ModelParams(3, 1.0, 0.1, 0.6),
    ):
        band = oscillation_band(p)
        assert eps_star(p) == (0.5 if band is None else 0.5 * band[0])
    # a band [1, r_high] with r_high ~ 2^{1/b} = 2^250 (b = 2 sigma2 - sigma):
    # found on its closed-form bracket, and its onset 1 gives eps_star 1/2
    far = ModelParams(3, 2.0, 0.004, 1.002)
    lo, hi = oscillation_band(far)
    assert lo == 1.0 and hi == pytest.approx(1.809e75, rel=1e-3)
    assert eps_star(far) == 0.5 and error_radius(far) == 20.0


@pytest.mark.parametrize(
    "p, band",
    [
        # r_high ~ 2^{1/b} = 32, b = 2 sigma2 - sigma: the old decade walk
        # overflowed the symbols on its way there
        (ModelParams(3, 100.0, 0.2, 50.1), (1.0, 32.0)),
        # a band [1, r_high] with r_high ~ 2^{1/b} past e^708: reported at the cut
        (ModelParams(3, 1.0, 0.4995, 0.5001), (1.0, math.exp(708.0))),
    ],
    ids=["steep-restoring-symbol", "band-past-the-doubles"],
)
def test_far_band_edges_are_found_without_overflow(p, band):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate(p, case_for(p))
        got = oscillation_band(p)
    assert got == pytest.approx(band, rel=1e-12)
    assert eps_star(p) == 0.5


def test_band_below_the_doubles_is_refused_as_a_model_error():
    # r_low ~ 2^{-1/a} with a = sigma - 2 sigma1 = 1e-5 lies far below the
    # smallest double: the bracket stops at e^-708, and the error radius
    # 20 e^708 overflows the radial weight
    p = ModelParams(3, 1.0, 0.499995, 0.50001)
    assert oscillation_band(p) == pytest.approx((math.exp(-708.0), 1.0), rel=1e-15, abs=0.0)
    with pytest.raises(ModelError, match="overflows the radial weight"):
        validate(p, case_for(p))


def test_delta_examples():
    assert delta(ModelParams(3, 1.0, 0.25, 0.75)) == pytest.approx(0.5)
    assert delta(ModelParams(3, 2.0, 0.5, 1.2)) == pytest.approx(0.7)
    assert delta(ModelParams(1, 1.0, 0.0, 0.8)) == pytest.approx(0.8)


def test_rate_steps(fractional_params, frictional_params):
    assert rate_step(fractional_params) == pytest.approx(Fraction(2, 3))
    assert rate_step(frictional_params) == pytest.approx(0.8)


def test_error_exponents_fractional(fractional_params):
    want = [Fraction(-2, 3), Fraction(-4, 3), Fraction(-2, 1)]
    for k, target in enumerate(want):
        assert error_exponent(fractional_params, k) == pytest.approx(float(target))


def test_error_exponents_frictional(frictional_params):
    assert error_exponent(frictional_params, 1) == pytest.approx(-1.05)
    assert error_exponent(frictional_params, 2) == pytest.approx(-1.85)


def test_weight_shifts_every_exponent_uniformly(fractional_params):
    heavy = ModelParams(3, 1.0, 0.25, 0.75, s=0.5)
    for k in range(3):
        gap = error_exponent(heavy, k) - error_exponent(fractional_params, k)
        assert gap == pytest.approx(-1.0 / 3.0)


@pytest.mark.parametrize(
    "p",
    [ModelParams(3, 1.0, 0.25, 0.75), ModelParams(1, 1.0, 0.0, 0.8), ModelParams(2, 1.3, 0.3, 1.1, s=0.5)],
    ids=["fractional", "frictional", "weighted"],
)
def test_dimension_weight_and_data_order_are_one_radial_exponent(p):
    # nu = n + 2s + 2j: the datum's r^2 shifts n by 4, the weight r^1 by 2,
    # in the same floats in both damping cases
    for k in range(4):
        assert error_exponent(p, k, 2) == error_exponent(replace(p, n=p.n + 4), k)
        assert error_exponent(replace(p, s=p.s + 1.0), k) == error_exponent(replace(p, n=p.n + 2), k)


def test_moment_free_targets():
    fractional, frictional = ModelParams(3, 1.0, 0.25, 0.75), ModelParams(3, 1.0, 0.0, 0.75)
    assert [error_exponent(fractional, k, 2) for k in range(3)] == pytest.approx([-2.0, -8.0 / 3.0, -10.0 / 3.0])
    assert [error_exponent(frictional, k, 2) for k in range(3)] == pytest.approx([-1.75, -2.5, -3.25])


def test_exponent_steps_are_exact(fractional_params, frictional_params):
    for p in (fractional_params, frictional_params):
        step = rate_step(p)
        for k in range(3):
            drop = error_exponent(p, k) - error_exponent(p, k + 1)
            assert drop == pytest.approx(step, rel=1e-14)


# gap / sigma1 between the sigma1 -> 0+ exponents (and rate steps) and the
# sigma1 = 0 ones: measured at most 3.25 (k = 3 at sigma2 = sigma) on the
# tuples below, so the rate table is continuous across the two damping cases
ONSET_SLOPE = 4.0


@pytest.mark.parametrize(
    "n, s, sigma, sigma2",
    [(3, 0.0, 1.0, 0.8), (1, 0.0, 1.0, 0.75), (2, 0.5, 1.3, 1.1), (3, 0.0, 1.0, 1.0), (5, 1.0, 1.5, 0.9)],
)
def test_exponents_at_vanishing_sigma1_meet_the_frictional_ones(n, s, sigma, sigma2):
    # at sigma1 = 1e-12 the gaps measured 1.1e-13 .. 3.2e-12 over k = 0..3,
    # and 1.0e-12 at most for rate_step; each grows linearly in sigma1, so
    # 100 times sigma1 gives 100 times the gap (to 1%: the 1e-12 gaps carry
    # the roundoff of exponents of order 1)
    zero = ModelParams(n, sigma, 0.0, sigma2, s=s)
    assert case_for(zero) is ZERO

    def gaps(sigma1):
        p = ModelParams(n, sigma, sigma1, sigma2, s=s)
        assert case_for(p) is POS
        exps = [abs(error_exponent(p, k) - error_exponent(zero, k)) for k in range(4)]
        return exps + [abs(rate_step(p) - rate_step(zero))]

    small, larger = gaps(1e-12), gaps(1e-10)
    assert max(small) <= ONSET_SLOPE * 1e-12
    for near, far in zip(small, larger):
        assert far == pytest.approx(100.0 * near, rel=0.01)


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
    assert mode_symbols(p, 0.5)[2] == pytest.approx(0.5625, rel=1e-14)
    assert mode_symbols(p, 1.0)[2] == pytest.approx(0.0, abs=1e-14)


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
    assert lo == 1.0  # sigma1 + sigma2 < sigma: the band starts at r = 1 exactly
    assert hi == pytest.approx(1.9206486159732264, rel=1e-12)
    mid = 0.5 * (lo + hi)
    assert mode_symbols(frictional_params, mid)[2] < 0.0
    # endpoints are discriminant zeros
    assert abs(mode_symbols(frictional_params, lo)[2]) < 1e-10
    assert abs(mode_symbols(frictional_params, hi)[2]) < 1e-10
    assert eps_star(frictional_params) == pytest.approx(0.5, rel=1e-12)


def test_band_at_viscoelastic_endpoint():
    # sigma2 = sigma: r^{0.5} + r^2 < 2r holds on ((3-sqrt(5))/2, 1)
    p = ModelParams(3, 1.0, 0.25, 1.0)
    band = oscillation_band(p)
    assert band is not None
    lo, hi = band
    assert lo == pytest.approx(0.38196601125010515, rel=1e-10)
    assert hi == 1.0
    assert eps_star(p) == pytest.approx(lo / 2.0, rel=1e-12)


def test_band_edge_does_not_depend_on_the_bracket():
    # bisection runs down to adjacent floats, so brackets of any width agree
    # to the discriminant's own noise near the edge (3 - sqrt(5))/2
    p = ModelParams(3, 1.0, 0.25, 1.0)
    edges = [
        _bisect_edge(lambda r: mode_symbols(p, r)[2], lo, hi)
        for lo, hi in ((0.01, 0.6), (0.2, 0.9), (0.3, 0.5), (0.38, 0.39))
    ]
    assert max(edges) - min(edges) <= 2e-15 * min(edges)


@pytest.mark.parametrize("sigma2, side", [(0.752, "below"), (0.748, "above"), (0.7501, "below")])
def test_narrow_bands_next_to_the_perfect_square(sigma2, side):
    # |sigma1 + sigma2 - sigma| <= 0.002: the band is a sliver on one side of
    # r = 1, e.g. D(0.9921) = -6.2e-5 for sigma2 = 0.752, and is still found
    p = ModelParams(3, 1.0, 0.25, sigma2)
    band = oscillation_band(p)
    assert band is not None
    lo, hi = band
    assert (hi if side == "below" else lo) == 1.0
    assert 0.98 < lo < hi < 1.02
    assert mode_symbols(p, math.sqrt(lo * hi))[2] < 0.0
    for edge in band:
        assert abs(mode_symbols(p, edge)[2]) < 1e-12
    if sigma2 == 0.752:
        assert lo < 0.9921 and mode_symbols(p, 0.9921)[2] < 0.0


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
        # the rate is exactly 1 at r = 1, so the top target is reached there
        assert slow_rate_radius(p, 1.0) == 1.0


def test_slow_rate_radius_rejects_nonpositive_target(fractional_params):
    with pytest.raises(ValueError):
        slow_rate_radius(fractional_params, 0.0)


@pytest.mark.parametrize("target", [-0.5, 1.0 + 1e-15, 2.0, math.nan, math.inf])
def test_slow_rate_radius_takes_targets_in_0_1(fractional_params, target):
    with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
        slow_rate_radius(fractional_params, target)
