"""Kernel jets against hand-derived series, and exact multipliers against
closed forms, a complex-arithmetic oracle, and the mode ODE itself."""

import cmath
import math

import numpy as np
import pytest

from sigmadamp.jet2 import add, allclose, jet_const, mul, scale
from sigmadamp import kernels
from sigmadamp.kernels import EXP_FLUSH, exact_multipliers, kernel_jets, root_jets
from sigmadamp.model import ModelParams, eps_star, oscillation_band

SAMPLE_POINTS = [
    (ModelParams(3, 1.0, 0.25, 0.75), 2.0, 0.7),
    (ModelParams(3, 1.0, 0.25, 0.75), 0.3, 1.3),
    (ModelParams(5, 1.4, 0.3, 1.0), 1.7, 0.45),
    (ModelParams(2, 1.0, 0.1, 0.9), 5.0, 0.9),
]


def powers(p, r):
    nu = r ** (2.0 * p.sigma1)
    mu = r ** (2.0 * (p.sigma - p.sigma1))
    x = r ** (2.0 * (p.sigma2 - p.sigma1))
    w = r ** (2.0 * (p.sigma - 2.0 * p.sigma1))
    return nu, mu, x, w


# -- building-block jets ------------------------------------------------------


@pytest.mark.parametrize("p, t, r", SAMPLE_POINTS)
def test_gamma_and_root_jets_match_hand_series(p, t, r):
    nu, mu, x, w = powers(p, r)
    roots = root_jets(p, r, 2)
    g1 = roots.gamma1
    assert g1.coeff[0][0] == pytest.approx(1.0)
    assert g1.coeff[1][0] == pytest.approx(-x, rel=1e-13)
    assert g1.coeff[0][1] == 0.0

    g2 = roots.gamma2
    assert g2.coeff[0][0] == pytest.approx(1.0)
    assert g2.coeff[0][1] == pytest.approx(-2.0 * w, rel=1e-13)
    assert g2.coeff[1][0] == 0.0

    ginv = roots.g_inv
    assert ginv.coeff[0][0] == pytest.approx(1.0 / nu, rel=1e-13)
    assert ginv.coeff[1][0] == pytest.approx(-x / nu, rel=1e-13)
    assert ginv.coeff[0][1] == pytest.approx(2.0 * w / nu, rel=1e-13)

    lam_slow, lam_fast = roots.lam_slow, roots.lam_fast
    assert lam_slow.coeff[0][0] == pytest.approx(-mu, rel=1e-13)
    assert lam_slow.coeff[1][0] == pytest.approx(mu * x, rel=1e-13)
    assert lam_slow.coeff[0][1] == pytest.approx(-mu * w, rel=1e-13)
    assert lam_fast.coeff[0][0] == pytest.approx(-nu, rel=1e-13)
    assert lam_fast.coeff[1][0] == pytest.approx(-nu * x, rel=1e-13)
    assert lam_fast.coeff[0][1] == pytest.approx(mu, rel=1e-13)


def test_gamma1_pure_a_row_is_alternating_geometric():
    p = ModelParams(3, 1.0, 0.25, 0.75)
    r = 0.8
    x = r ** (2.0 * (p.sigma2 - p.sigma1))
    g1 = root_jets(p, r, 4).gamma1
    for j in range(5):
        assert g1.coeff[j][0] == pytest.approx((-x) ** j, rel=1e-12)


def test_lambda_constant_terms_at_half():
    p = ModelParams(3, 1.0, 0.25, 0.75)
    roots = root_jets(p, 0.5, 1)
    lam_slow, lam_fast = roots.lam_slow, roots.lam_fast
    assert lam_slow.coeff[0][0] == pytest.approx(-(0.5**1.5), rel=1e-14)
    assert lam_fast.coeff[0][0] == pytest.approx(-(0.5**0.5), rel=1e-14)


@pytest.mark.parametrize("p, t, r", SAMPLE_POINTS)
def test_slow_root_round_trip_reconstructs_its_defining_quotient(p, t, r):
    # lambda_slow (1 + Gamma2) must reproduce -2 r^{2(sigma-sigma1)} Gamma1;
    # this is the b-regular replacement for the product-of-roots identity,
    # which degenerates at b = 0
    order = 3
    mu = r ** (2.0 * (p.sigma - p.sigma1))
    roots = root_jets(p, r, order)
    lhs = mul(roots.lam_slow, add(jet_const(1.0, order), roots.gamma2))
    rhs = scale(roots.gamma1, -2.0 * mu)
    assert allclose(lhs, rhs, rtol=1e-11, atol=1e-13)


# -- first-order kernel coefficients ------------------------------------------


@pytest.mark.parametrize("p, t, r", SAMPLE_POINTS)
def test_kernel_first_order_coefficients_match_hand_derivation(p, t, r):
    nu, mu, x, w = powers(p, r)
    X = kernel_jets(p, t, r, 1)
    es, ef = math.exp(-mu * t), math.exp(-nu * t)

    want = {
        "pos_fast": (-w * ef, w * ef * x * (2.0 + nu * t), -ef * (3.0 * w * w + w * mu * t)),
        "pos_slow": (-es, -mu * x * t * es, -es * w * (1.0 - mu * t)),
        "vel_slow": (es / nu, es * x * (mu * t - 1.0) / nu, es * w * (2.0 - mu * t) / nu),
        "vel_fast": (ef / nu, -ef * x * (1.0 + nu * t) / nu, ef * (2.0 * w + mu * t) / nu),
    }
    for name, (c00, c10, c01) in want.items():
        jet = getattr(X, name)
        assert jet.coeff[0][0] == pytest.approx(c00, rel=1e-12), name
        assert jet.coeff[1][0] == pytest.approx(c10, rel=1e-12), name
        assert jet.coeff[0][1] == pytest.approx(c01, rel=1e-12), name


def test_position_kernel_difference_at_time_zero():
    p = ModelParams(3, 1.0, 0.25, 0.75)
    for r in (0.3, 0.7, 1.1):
        X = kernel_jets(p, 0.0, r, 0)
        w = r ** (2.0 * (p.sigma - 2.0 * p.sigma1))
        diff = X.pos_fast.coeff[0][0] - X.pos_slow.coeff[0][0]
        assert diff == pytest.approx(1.0 - w, rel=1e-14)


def test_velocity_kernel_pure_a_coefficient_is_linear_in_slow_phase():
    # c[1][0] of the slow velocity kernel divided by its envelope is a
    # degree-1 polynomial in mu*t; the fitted coefficients are (-1, +1)
    p = ModelParams(3, 1.0, 0.25, 0.75)
    r = 0.6
    nu, mu, x, w = powers(p, r)
    ts = np.linspace(0.1, 4.0, 9)
    phase = mu * ts
    reduced = []
    for t in ts:
        X = kernel_jets(p, float(t), r, 1)
        envelope = math.exp(-mu * t) * x / nu
        reduced.append(X.vel_slow.coeff[1][0] / envelope)
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
                X = kernel_jets(p, t, float(r), 3)
                nu = r ** (2.0 * p.sigma1)
                for (j, m), cap in ceilings.items():
                    raw = abs(X.pos_fast.coeff[j][m]) * math.factorial(j) * math.factorial(m)
                    expo = (
                        2.0 * (p.sigma - 2.0 * p.sigma1)
                        + 2.0 * j * (p.sigma2 - p.sigma1)
                        + 2.0 * m * (p.sigma - 2.0 * p.sigma1)
                    )
                    bound = math.exp(-0.5 * nu * t) * r**expo
                    assert raw <= cap * bound


def test_kernel_jets_builds_the_root_jets_once(monkeypatch):
    # Gamma2 is the only square root in the kernel: one sqrt_jet per call
    # means Gamma1, Gamma2, G^{-1} and both roots come from a single pass
    calls = []
    real = kernels.sqrt_jet

    def counted(x):
        calls.append(x.order)
        return real(x)

    monkeypatch.setattr(kernels, "sqrt_jet", counted)
    p = ModelParams(3, 1.0, 0.25, 0.75)
    for order in (0, 1, 2, 4):
        kernel_jets(p, 1.0, np.array([0.2, 0.7]), order)
    assert calls == [0, 1, 2, 4]


def test_kernel_jets_rejects_negative_time():
    with pytest.raises(ValueError):
        kernel_jets(ModelParams(3, 1.0, 0.25, 0.75), -0.1, 0.5, 1)


def test_exponential_flush_zeroes_the_fast_family():
    p = ModelParams(3, 1.0, 0.25, 0.75)
    r = 2.0
    t = 1.2 * EXP_FLUSH / r ** (2.0 * p.sigma1)  # nu*t beyond the flush point
    X = kernel_jets(p, t, r, 2)
    assert all(X.pos_fast.coeff[j][m] == 0.0 for j, m in X.pos_fast.indices())
    assert all(X.vel_fast.coeff[j][m] == 0.0 for j, m in X.vel_fast.indices())


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
