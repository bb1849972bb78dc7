"""Kernel series and derivative tables against hand-derived series, and exact
multipliers against closed forms, a complex-arithmetic oracle, and the mode
ODE itself.

Coefficients of separate a and b powers are read from the bivariate tables of
`acceptance.kernel_tables`; the lab's one-variable series in eps = a = b must
equal their degree sums."""

import cmath
import math

import numpy as np
import pytest

from sigmadamp import jet2, kernels
from sigmadamp.acceptance import kernel_tables, table_degree_sums
from sigmadamp.jet2 import mul
from sigmadamp.kernels import (
    EXP_FLUSH,
    exact_multipliers,
    kernel_jets,
    kernel_roots,
    multiplier_symbols,
    root_jets,
    summed_kernel_roots,
)
from sigmadamp.model import ModelParams, RateCase, eps_star, oscillation_band
from sigmadamp.profiles import profile_pair

SAMPLE_POINTS = [
    (ModelParams(3, 1.0, 0.25, 0.75), 2.0, 0.7),
    (ModelParams(3, 1.0, 0.25, 0.75), 0.3, 1.3),
    (ModelParams(5, 1.4, 0.3, 1.0), 1.7, 0.45),
    (ModelParams(2, 1.0, 0.1, 0.9), 5.0, 0.9),
]
ROOT_NAMES = ("gamma1", "gamma2", "g_inv", "lam_slow", "lam_fast")
PIECE_NAMES = ("pos_fast", "pos_slow", "vel_slow", "vel_fast")


def powers(p, r):
    nu = r ** (2.0 * p.sigma1)
    mu = r ** (2.0 * (p.sigma - p.sigma1))
    x = r ** (2.0 * (p.sigma2 - p.sigma1))
    w = r ** (2.0 * (p.sigma - 2.0 * p.sigma1))
    return nu, mu, x, w


# -- building blocks ----------------------------------------------------------


@pytest.mark.parametrize("p, t, r", SAMPLE_POINTS)
def test_gamma_and_root_jets_match_hand_series(p, t, r):
    # first derivatives in a and b separately, from the bivariate tables
    nu, mu, x, w = powers(p, r)
    tables = kernel_tables(p, t, r, order=2)
    g1 = tables["gamma1"]
    assert g1[0][0] == pytest.approx(1.0)
    assert g1[1][0] == pytest.approx(-x, rel=1e-13)
    assert g1[0][1] == 0.0

    g2 = tables["gamma2"]
    assert g2[0][0] == pytest.approx(1.0)
    assert g2[0][1] == pytest.approx(-2.0 * w, rel=1e-13)
    assert g2[1][0] == 0.0

    ginv = tables["g_inv"]
    assert ginv[0][0] == pytest.approx(1.0 / nu, rel=1e-13)
    assert ginv[1][0] == pytest.approx(-x / nu, rel=1e-13)
    assert ginv[0][1] == pytest.approx(2.0 * w / nu, rel=1e-13)

    lam_slow, lam_fast = tables["lam_slow"], tables["lam_fast"]
    assert lam_slow[0][0] == pytest.approx(-mu, rel=1e-13)
    assert lam_slow[1][0] == pytest.approx(mu * x, rel=1e-13)
    assert lam_slow[0][1] == pytest.approx(-mu * w, rel=1e-13)
    assert lam_fast[0][0] == pytest.approx(-nu, rel=1e-13)
    assert lam_fast[1][0] == pytest.approx(-nu * x, rel=1e-13)
    assert lam_fast[0][1] == pytest.approx(mu, rel=1e-13)

    # the series carry the same numbers, shell by shell
    roots = root_jets(p, r, 2)
    for name in ROOT_NAMES:
        table = tables[name]
        series = getattr(roots, name)
        assert series[0] == pytest.approx(table[0][0], rel=1e-13), name
        assert series[1] == pytest.approx(table[1][0] + table[0][1], rel=1e-13, abs=1e-15), name


def test_gamma1_pure_a_row_is_alternating_geometric():
    p = ModelParams(3, 1.0, 0.25, 0.75)
    r = 0.8
    x = r ** (2.0 * (p.sigma2 - p.sigma1))
    g1 = kernel_tables(p, 1.0, r, order=4)["gamma1"]
    for j in range(5):
        assert g1[j][0] == pytest.approx(math.factorial(j) * (-x) ** j, rel=1e-12)
        # Gamma1 does not depend on b
        assert all(g1[j][m] == 0.0 for m in range(1, 5 - j))
    # b is absent, so the diagonal series is the same geometric row
    series = root_jets(p, r, 4).gamma1
    for d in range(5):
        assert series[d] == pytest.approx((-x) ** d, rel=1e-12)


def test_lambda_constant_terms_at_half():
    p = ModelParams(3, 1.0, 0.25, 0.75)
    roots = root_jets(p, 0.5, 1)
    lam_slow, lam_fast = roots.lam_slow, roots.lam_fast
    assert lam_slow[0] == pytest.approx(-(0.5**1.5), rel=1e-14)
    assert lam_fast[0] == pytest.approx(-(0.5**0.5), rel=1e-14)


@pytest.mark.parametrize("p, t, r", SAMPLE_POINTS)
def test_slow_root_round_trip_reconstructs_its_defining_quotient(p, t, r):
    # lambda_slow (1 + Gamma2) must reproduce -2 r^{2(sigma-sigma1)} Gamma1;
    # this is the b-regular replacement for the product-of-roots identity,
    # which degenerates at b = 0
    order = 3
    mu = r ** (2.0 * (p.sigma - p.sigma1))
    roots = root_jets(p, r, order)
    one_plus_g2 = roots.gamma2.copy()
    one_plus_g2[0] += 1.0
    lhs = mul(roots.lam_slow, one_plus_g2)
    rhs = -2.0 * mu * roots.gamma1
    assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("order", range(7))
def test_series_coefficients_are_the_table_degree_sums(order):
    # the univariate-Taylor reduction: the degree-d series coefficient is the
    # sum of table[j][m] / (j! m!) over j + m = d, for every number the lab
    # consumes, at orders past the ones the profiles use.  Shells can cancel
    # (at r = 1.3 the first config has x = w, and lambda_slow's shells sum to
    # zero), so the gap is measured against the sum of the absolute terms
    # (worst measured 9.9e-15).
    for p, t, r in SAMPLE_POINTS:
        tables = kernel_tables(p, t, r, order=order)
        roots = root_jets(p, r, order)
        pieces = kernel_jets(p, t, r, order)
        for name in ROOT_NAMES + PIECE_NAMES:
            series = getattr(roots if name in ROOT_NAMES else pieces, name)
            assert series.shape == (order + 1,)
            want = np.array(table_degree_sums(tables[name]))
            scale = np.array(table_degree_sums([[abs(v) for v in row] for row in tables[name]]))
            assert np.all(np.abs(series - want) <= 1e-12 * scale), (name, p, t, r)


# -- first-order kernel coefficients ------------------------------------------


@pytest.mark.parametrize("p, t, r", SAMPLE_POINTS)
def test_kernel_first_order_coefficients_match_hand_derivation(p, t, r):
    nu, mu, x, w = powers(p, r)
    tables = kernel_tables(p, t, r, order=1)
    series = kernel_jets(p, t, r, 1)
    es, ef = math.exp(-mu * t), math.exp(-nu * t)

    want = {
        "pos_fast": (-w * ef, w * ef * x * (2.0 + nu * t), -ef * (3.0 * w * w + w * mu * t)),
        "pos_slow": (-es, -mu * x * t * es, -es * w * (1.0 - mu * t)),
        "vel_slow": (es / nu, es * x * (mu * t - 1.0) / nu, es * w * (2.0 - mu * t) / nu),
        "vel_fast": (ef / nu, -ef * x * (1.0 + nu * t) / nu, ef * (2.0 * w + mu * t) / nu),
    }
    for name, (c00, c10, c01) in want.items():
        table = tables[name]
        assert table[0][0] == pytest.approx(c00, rel=1e-12), name
        assert table[1][0] == pytest.approx(c10, rel=1e-12), name
        assert table[0][1] == pytest.approx(c01, rel=1e-12), name
        assert getattr(series, name)[0] == pytest.approx(c00, rel=1e-12), name
        assert getattr(series, name)[1] == pytest.approx(c10 + c01, rel=1e-11), name


def test_position_kernel_difference_at_time_zero():
    p = ModelParams(3, 1.0, 0.25, 0.75)
    for r in (0.3, 0.7, 1.1):
        X = kernel_jets(p, 0.0, r, 0)
        w = r ** (2.0 * (p.sigma - 2.0 * p.sigma1))
        diff = X.pos_fast[0] - X.pos_slow[0]
        assert diff == pytest.approx(1.0 - w, rel=1e-14)


def test_velocity_kernel_pure_a_coefficient_is_linear_in_slow_phase():
    # the a-derivative of the slow velocity kernel divided by its envelope is
    # a degree-1 polynomial in mu*t; the fitted coefficients are (-1, +1)
    p = ModelParams(3, 1.0, 0.25, 0.75)
    r = 0.6
    nu, mu, x, w = powers(p, r)
    ts = np.linspace(0.1, 4.0, 9)
    phase = mu * ts
    reduced = []
    for t in ts:
        table = kernel_tables(p, float(t), r, order=1)["vel_slow"]
        envelope = math.exp(-mu * t) * x / nu
        reduced.append(table[1][0] / envelope)
    c1, c0 = np.polyfit(phase, reduced, 1)
    assert c0 == pytest.approx(-1.0, abs=1e-9)
    assert c1 == pytest.approx(1.0, abs=1e-9)
    # and the residual of the linear model is at noise level
    fitted = c0 + c1 * phase
    assert np.max(np.abs(fitted - reduced)) < 1e-9


def test_derivative_growth_stays_inside_decay_envelope():
    # |d^{j+m} K01 / da^j db^m| <= C_{jm} e^{-nu t / 2} r^{2(sigma-2 sigma1)
    # + 2j(sigma2-sigma1) + 2m(sigma-2 sigma1)} on r <= eps_star; the
    # ceilings are frozen from a parameter sweep and hold with ~1.5x slack
    ceilings = {
        (0, 0): 1.5, (1, 0): 3.0, (0, 1): 4.5,
        (2, 0): 10.0, (1, 1): 18.0, (0, 2): 30.0,
        (3, 0): 55.0, (2, 1): 100.0, (1, 2): 180.0, (0, 3): 320.0,
    }
    for p in (ModelParams(3, 1.0, 0.25, 0.75), ModelParams(5, 1.2, 0.3, 0.9)):
        es = eps_star(p)
        for t in (1.0, 10.0, 100.0):
            for r in np.geomspace(1e-4, es, 10):
                table = kernel_tables(p, t, float(r), order=3)["pos_fast"]
                nu = r ** (2.0 * p.sigma1)
                for (j, m), cap in ceilings.items():
                    raw = abs(table[j][m])
                    expo = (
                        2.0 * (p.sigma - 2.0 * p.sigma1)
                        + 2.0 * j * (p.sigma2 - p.sigma1)
                        + 2.0 * m * (p.sigma - 2.0 * p.sigma1)
                    )
                    bound = math.exp(-0.5 * nu * t) * r**expo
                    assert raw <= cap * bound


def test_kernel_jets_builds_the_root_jets_once(monkeypatch):
    # Gamma2 is the only square root in the kernel: one sqrt_series per call
    # means Gamma1, Gamma2, G^{-1} and both roots come from a single pass
    calls = []
    real = kernels.sqrt_series

    def counted(x):
        calls.append(len(x) - 1)
        return real(x)

    monkeypatch.setattr(kernels, "sqrt_series", counted)
    p = ModelParams(3, 1.0, 0.25, 0.75)
    for order in (0, 1, 2, 4):
        kernel_jets(p, 1.0, np.array([0.2, 0.7]), order)
    assert calls == [0, 1, 2, 4]


GATHER_PARAMS = pytest.mark.parametrize(
    "p", [ModelParams(3, 1.0, 0.25, 0.9), ModelParams(1, 1.0, 0.0, 0.8)], ids=["fractional", "frictional"]
)


def gathered_nodes():
    """97 distinct radii, and 600 nodes that repeat them at four times."""
    rng = np.random.default_rng(7)
    radii = np.geomspace(1e-3, 20.0, 97)
    at = rng.integers(0, len(radii), 600)
    t = rng.choice([0.0, 0.3, 5.0, 200.0], len(at))
    return radii, at, t


@GATHER_PARAMS
def test_radial_stages_gathered_to_nodes_equal_one_stage_calls(p):
    # the radial stages are built once on distinct radii and gathered to
    # nodes that repeat each radius at several times; every regime occurs.
    # A profile's stage is the summed one, which profile_pair builds itself
    # when it is handed none
    radii, at, t = gathered_nodes()
    r = radii[at]
    symbols = multiplier_symbols(p, radii).take(at)
    z = np.sqrt(np.maximum(symbols.disc, 0.0)) * 0.5 * t
    assert (symbols.disc < 0.0).any() and (z[symbols.disc >= 0.0] <= 0.5).any() and (z > 0.5).any()
    split, one = exact_multipliers(p, t, r, symbols), exact_multipliers(p, t, r)
    assert np.array_equal(split.K0, one.K0) and np.array_equal(split.K1, one.K1)
    for order in (0, 1, 2):
        roots = kernel_roots(p, radii, order).take(at)
        split, one = kernel_jets(p, t, r, order, roots), kernel_jets(p, t, r, order)
        for name in PIECE_NAMES:
            assert np.array_equal(getattr(split, name), getattr(one, name))
    case = RateCase.ZERO_SIGMA1 if p.sigma1 == 0.0 else RateCase.POSITIVE_SIGMA1
    for k in (0, 1, 2, 3):
        roots = summed_kernel_roots(p, radii, k - 1).take(at) if k else None
        for got, want in zip(profile_pair(k, p, case, t, r, roots), profile_pair(k, p, case, t, r)):
            assert np.array_equal(got, want)


def exp_recurrence(x):
    """exp of a series: y[0] = e^{x[0]}, y[d] = (1/d) sum_{i=1..d} i x[i] y[d-i]."""
    out = np.empty(x.shape)
    out[0] = np.exp(x[0])
    for d in range(1, len(x)):
        acc = x[1] * out[d - 1]
        for i in range(2, d + 1):
            acc = acc + i * x[i] * out[d - i]
        out[d] = acc / d
    return out


def recurrence_pieces(p, t, r, order):
    """The four pieces as series products at each time: e^{lambda t} by its recurrence,
    then G^{-1} and the other root multiplied in."""
    roots = root_jets(p, r, order)
    lam = np.stack([roots.lam_slow, roots.lam_fast], axis=1)
    nil = lam * np.asarray(t, dtype=float)
    nil[0] = 0.0
    exps = kernels._flushed_exp(np.asarray(-lam[0] * t)) * exp_recurrence(nil)
    vel = mul(np.broadcast_to(roots.g_inv[:, None], exps.shape), exps)
    pos = mul(vel[:, ::-1], lam)
    return {"pos_fast": pos[:, 0], "pos_slow": pos[:, 1], "vel_slow": vel[:, 0], "vel_fast": vel[:, 1]}


def test_closed_time_form_matches_the_exp_recurrence():
    # kernel_jets sums e^{lambda_0 t} t^h N^h/h! with radius-only coefficients;
    # the recurrence builds e^{lambda t} at each time.  Coefficients that
    # cancel across shells keep only the absolute rounding of the larger
    # ones, so each gap is measured against the piece's largest coefficient
    # at its node: worst measured 2.9e-16 on SAMPLE_POINTS (orders 0..6) and
    # 1.3e-14 on the gathered nodes (orders 0..3)
    cases = [(p, np.float64(t), np.float64(r), range(7)) for p, t, r in SAMPLE_POINTS]
    radii, at, t = gathered_nodes()
    for p in (ModelParams(3, 1.0, 0.25, 0.9), ModelParams(1, 1.0, 0.0, 0.8)):
        cases.append((p, t, radii[at], range(4)))
    for p, t, r, orders in cases:
        for order in orders:
            got, want = kernel_jets(p, t, r, order), recurrence_pieces(p, t, r, order)
            for name in PIECE_NAMES:
                a, b = getattr(got, name), want[name]
                assert a.shape == b.shape
                scale = np.max(np.abs(b), axis=0)
                assert np.all(np.abs(a - b) <= 5e-14 * scale), (name, p, order)


@GATHER_PARAMS
def test_time_stage_makes_no_series_products(monkeypatch, p):
    # every series product is radial: handed a stage, kernel_jets and
    # profile_pair only evaluate envelopes and polynomials in t
    radii, at, t = gathered_nodes()
    stages = [kernel_roots(p, radii, 2).take(at), summed_kernel_roots(p, radii, 2).take(at)]
    calls = []

    def counted(x, y):
        calls.append(x.shape)
        return mul(x, y)

    monkeypatch.setattr(kernels, "mul", counted)
    monkeypatch.setattr(jet2, "mul", counted)
    for roots in stages:
        kernel_jets(p, t, radii[at], 2, roots)
    case = RateCase.ZERO_SIGMA1 if p.sigma1 == 0.0 else RateCase.POSITIVE_SIGMA1
    profile_pair(3, p, case, t, radii[at], stages[1])
    assert calls == []
    kernel_jets(p, t, radii[at], 2)
    assert calls  # the counter does see the products of a radial stage


@pytest.mark.parametrize("order", range(7))
def test_profile_stage_holds_one_degree_row_per_power(order):
    # kernel_roots keeps order + 1 degree rows per power of t; the summed
    # stage keeps their sum alone, and kernel_jets returns that one row
    p = ModelParams(3, 1.0, 0.25, 0.75)
    radii = np.geomspace(1e-3, 20.0, 11)
    full, summed = kernel_roots(p, radii, order), summed_kernel_roots(p, radii, order)
    assert full.coeffs.shape == (order + 1, order + 1, 2, 2, radii.size)
    assert summed.coeffs.shape == (order + 1, 1, 2, 2, radii.size)
    assert np.array_equal(summed.lam0, full.lam0)
    rows = full.coeffs.sum(axis=1, keepdims=True)
    assert np.allclose(summed.coeffs, rows, rtol=1e-13, atol=1e-300)
    pieces = kernel_jets(p, 3.0, radii, order, summed)
    assert all(getattr(pieces, name).shape == (1, radii.size) for name in PIECE_NAMES)


def test_kernel_jets_rejects_negative_time():
    with pytest.raises(ValueError):
        kernel_jets(ModelParams(3, 1.0, 0.25, 0.75), -0.1, 0.5, 1)


def test_exponential_flush_zeroes_the_fast_family():
    p = ModelParams(3, 1.0, 0.25, 0.75)
    r = 2.0
    t = 1.2 * EXP_FLUSH / r ** (2.0 * p.sigma1)  # nu*t beyond the flush point
    X = kernel_jets(p, t, r, 2)
    assert np.all(X.pos_fast == 0.0)
    assert np.all(X.vel_fast == 0.0)


def test_flushed_exp_is_exp_then_flush_bit_for_bit():
    # the argument is clamped to EXP_FLUSH before np.exp, which is slow on
    # underflowing results; the entries past it are zeroed either way
    arg = np.array(
        [0.0, 1.5, 700.0, np.nextafter(700.0, np.inf), 708.4, 745.2, 1e4, np.inf, np.nan]
    )
    want = np.exp(-arg)
    want[arg > EXP_FLUSH] = 0.0
    got = kernels._flushed_exp(arg)
    assert got.tobytes() == want.tobytes()
    assert got[2] > 0.0 and np.isnan(got[-1]) and not got[3:-1].any()


# -- exact multipliers --------------------------------------------------------


def test_multipliers_start_from_initial_conditions():
    for p in (ModelParams(3, 1.0, 0.25, 0.75), ModelParams(1, 1.0, 0.0, 0.8)):
        for r in (0.2, 1.0, 3.0):
            em = exact_multipliers(p, 0.0, r)
            assert em.K0 == 1.0
            assert em.K1 == 0.0


def test_degenerate_double_root_closed_form():
    # sigma=1, sigma1=0, sigma2=1 at r=1: both roots equal -1
    p = ModelParams(3, 1.0, 0.0, 1.0)
    for t in (0.5, 2.0, 10.0):
        em = exact_multipliers(p, t, 1.0)
        assert em.K1 == pytest.approx(t * math.exp(-t), rel=1e-14)
        assert em.K0 == pytest.approx((1.0 + t) * math.exp(-t), rel=1e-14)


def test_perfect_square_discriminant_closed_form():
    # same family at r=0.5: roots are exactly -1/4 and -1
    p = ModelParams(3, 1.0, 0.0, 1.0)
    for t in (0.3, 1.0, 6.0, 40.0):
        em = exact_multipliers(p, t, 0.5)
        k1 = (math.exp(-0.25 * t) - math.exp(-t)) / 0.75
        k0 = (math.exp(-0.25 * t) - 0.25 * math.exp(-t)) / 0.75
        assert em.K1 == pytest.approx(k1, rel=1e-13)
        assert em.K0 == pytest.approx(k0, rel=1e-13)


def test_oscillatory_regime_against_complex_oracle(frictional_params):
    # inside the band, evaluate the root-difference quotients with complex
    # arithmetic and compare; the module itself never touches cmath
    p = frictional_params
    lo, hi = oscillation_band(p)
    for r in np.linspace(lo + 1e-3, hi - 1e-3, 7):
        a_sym = r ** (2.0 * p.sigma1) + r ** (2.0 * p.sigma2)
        s_sym = r ** (2.0 * p.sigma)
        root = cmath.sqrt(complex(a_sym * a_sym - 4.0 * s_sym))
        lam1 = (-a_sym + root) / 2.0
        lam2 = (-a_sym - root) / 2.0
        for t in (0.7, 3.0, 11.0):
            em = exact_multipliers(p, t, float(r))
            k1 = (cmath.exp(lam1 * t) - cmath.exp(lam2 * t)) / (lam1 - lam2)
            k0 = (lam1 * cmath.exp(lam2 * t) - lam2 * cmath.exp(lam1 * t)) / (lam1 - lam2)
            assert abs(k1.imag) < 1e-12 * abs(k1)
            assert em.K1 == pytest.approx(k1.real, rel=1e-11)
            assert em.K0 == pytest.approx(k0.real, rel=1e-11)


def test_multipliers_are_continuous_across_band_edges(frictional_params):
    band = oscillation_band(frictional_params)
    for edge in band:
        for t in (0.5, 5.0, 20.0):
            inner = exact_multipliers(frictional_params, t, edge * (1.0 + 1e-9))
            outer = exact_multipliers(frictional_params, t, edge * (1.0 - 1e-9))
            assert abs(inner.K0 - outer.K0) < 1e-7
            assert abs(inner.K1 - outer.K1) < 1e-7


def _bisect_radius(f, lo, hi):
    """A radius where the increasing function f crosses zero on [lo, hi]."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return lo


def test_multipliers_on_an_array_equal_the_scalar_calls_bit_for_bit(frictional_params):
    # each regime is evaluated on its own nodes and scattered back, so one
    # array across every seam must give the floats of one-node calls
    p = frictional_params
    a_sym = lambda r: r ** (2.0 * p.sigma1) + r ** (2.0 * p.sigma2)  # noqa: E731
    disc = lambda r: a_sym(r) ** 2 - 4.0 * r ** (2.0 * p.sigma)  # noqa: E731
    band = oscillation_band(p)
    for t in (0.0, 0.7, 5.0, 500.0):
        seams = [*band, 0.5 * (band[0] + band[1])]
        if t > 0.0:
            # z = sqrt(D2) t / 2 = 1/2 just outside the band, and the flush of the
            # envelope e^{-At/2} and of the fast exponential e^{lambda_fast t}
            seams.append(_bisect_radius(lambda r: disc(r) - (1.0 / t) ** 2, band[1], 50.0))
            seams.append(_bisect_radius(lambda r: a_sym(r) * t / 2.0 - EXP_FLUSH, 1e-3, 1e3))
            fast = lambda r: 0.5 * (a_sym(r) + math.sqrt(max(disc(r), 0.0))) * t  # noqa: E731
            seams.append(_bisect_radius(lambda r: fast(r) - EXP_FLUSH, band[1], 1e3))
        r = np.sort(
            np.concatenate(
                [np.geomspace(1e-3, 40.0, 400)]
                + [np.nextafter(s, np.inf) * (1.0 + 1e-12 * np.arange(-3, 4)) for s in seams]
            )
        )
        em = exact_multipliers(p, t, r)
        scalar = [exact_multipliers(p, t, float(x)) for x in r]
        assert em.K0.tobytes() == np.array([e.K0 for e in scalar]).tobytes()
        assert em.K1.tobytes() == np.array([e.K1 for e in scalar]).tobytes()
        # the array does straddle every seam
        d = np.array([disc(x) for x in r])
        z = np.sqrt(np.maximum(d, 0.0)) * t / 2.0
        assert np.any(d < 0.0) and np.any((d >= 0.0) & (z <= 0.5))
        if t > 0.0:
            assert np.any(z > 0.5)
            for arg in (a_sym(r) * t / 2.0, np.array([fast(x) for x in r])):
                assert np.any(arg > EXP_FLUSH) and np.any(arg <= EXP_FLUSH)


def test_multipliers_flush_to_zero_at_extreme_damping():
    p = ModelParams(3, 1.0, 0.25, 0.75)
    em = exact_multipliers(p, 1e6, 2.0)
    assert em.K0 == 0.0
    assert em.K1 == 0.0


def test_multipliers_solve_the_mode_equation():
    # 5-point stencil residual, relative to the largest of the three terms
    for p, r_values in [
        (ModelParams(3, 1.0, 0.25, 0.75), (0.5, 1.0, 2.5)),
        (ModelParams(1, 1.0, 0.0, 0.8), (0.6, 1.4, 2.5)),  # 1.4 is inside the band
    ]:
        a_sym = lambda r: r ** (2.0 * p.sigma1) + r ** (2.0 * p.sigma2)
        s_sym = lambda r: r ** (2.0 * p.sigma)
        for r in r_values:
            for t in (0.5, 3.0, 12.0):
                h = 1e-4 * max(1.0, t)
                for pick in (lambda e: e.K0, lambda e: e.K1):
                    f = [pick(exact_multipliers(p, t + i * h, r)) for i in (-2, -1, 0, 1, 2)]
                    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
                    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
                    terms = (d2, a_sym(r) * d1, s_sym(r) * f[2])
                    denom = max(abs(v) for v in terms)
                    if denom == 0.0:
                        continue
                    assert abs(sum(terms)) / denom < 1e-6


# -- per-node times --------------------------------------------------------------

TIME_GRID = (0.0, 0.7, 10.0, 316.0, 1e4)


def _nodes_at_times(p):
    # every radius at every time, the times interleaved: r spans all three root
    # regimes and the flush edges
    r = np.geomspace(1e-6, 40.0, 300)
    if p.sigma1 == 0.0:
        r = np.concatenate((r, np.linspace(*oscillation_band(p), 50)))
    t = np.repeat(np.array(TIME_GRID), r.size)
    return np.tile(r, len(TIME_GRID)), t, r


@pytest.mark.parametrize("params", ["fractional_params", "frictional_params"])
def test_multipliers_at_per_node_times_equal_the_scalar_time_calls(params, request):
    p = request.getfixturevalue(params)
    r_all, t_all, r = _nodes_at_times(p)
    em = exact_multipliers(p, t_all, r_all)
    for i, t in enumerate(TIME_GRID):
        at_t = slice(i * r.size, (i + 1) * r.size)
        one = exact_multipliers(p, t, r)
        assert np.array_equal(em.K0[at_t], one.K0) and np.array_equal(em.K1[at_t], one.K1)
    # a scalar radius against an array of times broadcasts to the times
    em = exact_multipliers(p, np.array(TIME_GRID), 0.3)
    assert em.K0.tolist() == [exact_multipliers(p, t, 0.3).K0 for t in TIME_GRID]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("params", ["fractional_params", "frictional_params"])
def test_profiles_at_per_node_times_equal_the_scalar_time_calls(params, k, request):
    p = request.getfixturevalue(params)
    case = RateCase.POSITIVE_SIGMA1 if p.sigma1 > 0.0 else RateCase.ZERO_SIGMA1
    r_all, t_all, r = _nodes_at_times(p)
    pair = profile_pair(k, p, case, t_all, r_all)
    for i, t in enumerate(TIME_GRID):
        at_t = slice(i * r.size, (i + 1) * r.size)
        for got, want in zip(pair, profile_pair(k, p, case, t, r)):
            assert np.array_equal(got[at_t], want)


def test_one_negative_time_in_an_array_is_refused(fractional_params):
    t = np.array([1.0, 10.0, -1e-300, 100.0])
    r = np.full(4, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        exact_multipliers(fractional_params, t, r)
    with pytest.raises(ValueError, match="nonnegative"):
        kernel_jets(fractional_params, t, r, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        profile_pair(2, fractional_params, RateCase.POSITIVE_SIGMA1, t, r)
