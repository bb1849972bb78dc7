"""Series-built asymptotic profiles against the catalogued closed forms."""

import warnings

import numpy as np
import pytest

from sigmadamp import profiles
from sigmadamp.kernels import kernel_jets, root_jets
from sigmadamp.model import ModelError, ModelParams, RateCase, case_for, eps_star, error_radius, validate
from sigmadamp.profiles import check_order, golden_modal, profile_pair, profile_roots

POS = RateCase.POSITIVE_SIGMA1
ZERO = RateCase.ZERO_SIGMA1


def reference_grid(p):
    es = eps_star(p)
    return np.geomspace(1e-3 * es, es, 12), (1.0, 10.0, 100.0)


def scaled_gap(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return np.max(np.abs(a - b) / scale)


@pytest.mark.parametrize("k", [1, 2])
def test_fractional_profiles_match_closed_forms(fractional_params, k):
    p = fractional_params
    ref0, ref1 = golden_modal(k, p)
    rs, ts = reference_grid(p)
    for t in ts:
        a0, a1 = profile_pair(k, p, POS, t, rs)
        assert scaled_gap(a0, ref0.evaluate(t, rs)) < 1e-12
        assert scaled_gap(a1, ref1.evaluate(t, rs)) < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_frictional_profiles_match_closed_forms(frictional_params, k):
    p = frictional_params
    ref0, ref1 = golden_modal(k, p)
    rs, ts = reference_grid(p)
    for t in ts:
        b0, b1 = profile_pair(k, p, ZERO, t, rs)
        assert scaled_gap(b0, ref0.evaluate(t, rs)) < 1e-12
        assert scaled_gap(b1, ref1.evaluate(t, rs)) < 1e-12


def test_corrected_term_flags_are_exactly_as_documented(fractional_params, frictional_params):
    # two catalogued terms needed repair, both in the position component of
    # the fractional case; every other term is a verbatim transcription
    expected = {
        (POS, 1): ((1,), ()),
        (POS, 2): ((6,), ()),
        (ZERO, 1): ((), ()),
        (ZERO, 2): ((), ()),
    }
    for (case, k), (want0, want1) in expected.items():
        p = fractional_params if case is POS else frictional_params
        ref0, ref1 = golden_modal(k, p)
        assert ref0.corrected_indices() == want0, (case, k)
        assert ref1.corrected_indices() == want1, (case, k)
    # the repaired terms say how they differ from the recorded form
    ref0, _ = golden_modal(1, fractional_params)
    assert "time factor" in ref0.terms[1].note
    ref0, _ = golden_modal(2, fractional_params)
    assert "radial power" in ref0.terms[6].note


def test_profiles_vanish_at_order_zero(fractional_params, frictional_params):
    assert profile_pair(0, fractional_params, POS, 3.0, 0.5) == (0.0, 0.0)
    assert profile_pair(0, frictional_params, ZERO, 3.0, 0.5) == (0.0, 0.0)
    rs = np.array([0.2, 0.4])
    a0, a1 = profile_pair(0, fractional_params, POS, 3.0, rs)
    assert np.all(a0 == 0.0) and np.all(a1 == 0.0)


def test_profile_orders_telescope_by_jet_shells(fractional_params, frictional_params):
    # profile(k+1) - profile(k) must equal the degree-k series coefficient,
    # which is the j+m = k shell of the bivariate jet on a = b
    for p, case in [(fractional_params, POS), (frictional_params, ZERO)]:
        for k in (0, 1, 2):
            for t, r in [(2.0, 0.3), (7.0, 0.45)]:
                lo0, lo1 = profile_pair(k, p, case, t, r)
                hi0, hi1 = profile_pair(k + 1, p, case, t, r)
                X = kernel_jets(p, t, r, k)
                if case is POS:
                    shell0 = X.pos_fast[k] - X.pos_slow[k]
                    shell1 = X.vel_slow[k] - X.vel_fast[k]
                else:
                    shell0 = -X.pos_slow[k]
                    shell1 = X.vel_slow[k]
                assert hi0 - lo0 == pytest.approx(shell0, rel=1e-11, abs=1e-14)
                assert hi1 - lo1 == pytest.approx(shell1, rel=1e-11, abs=1e-14)


def test_first_order_profiles_are_the_kernel_constant_terms(fractional_params):
    # cross-module identity: the k=1 profile pair is exactly the difference
    # of kernel constant terms
    p = fractional_params
    for t, r in [(1.5, 0.25), (9.0, 0.6)]:
        X = kernel_jets(p, t, r, 0)
        a0, a1 = profile_pair(1, p, POS, t, r)
        assert a0 == pytest.approx(X.pos_fast[0] - X.pos_slow[0], rel=1e-14)
        assert a1 == pytest.approx(X.vel_slow[0] - X.vel_fast[0], rel=1e-14)


def test_one_kernel_pass_per_profile_pair(monkeypatch, fractional_params, frictional_params):
    calls = []
    real = profiles.kernel_jets

    def counted(p, t, r, order, roots=None):
        calls.append(order)
        return real(p, t, r, order, roots)

    monkeypatch.setattr(profiles, "kernel_jets", counted)
    for p, case in ((fractional_params, POS), (frictional_params, ZERO)):
        for k in (1, 2, 3):
            profile_pair(k, p, case, 2.0, np.array([0.1, 0.4]))
    assert calls == [0, 1, 2, 0, 1, 2]


def test_frictional_fallback_stage_holds_the_slow_branch_alone(
    monkeypatch, fractional_params, frictional_params
):
    # at sigma1 = 0 the profile reads no fast piece, so the stage profile_pair
    # builds itself carries one branch; at sigma1 > 0 it carries both
    branches = []
    real = profiles.kernel_jets

    def counted(p, t, r, order, roots=None):
        branches.append(len(roots.lam0))
        return real(p, t, r, order, roots)

    monkeypatch.setattr(profiles, "kernel_jets", counted)
    for k in (1, 2, 3):
        profile_pair(k, frictional_params, ZERO, 2.0, np.array([0.1, 0.4]))
    profile_pair(2, fractional_params, POS, 2.0, np.array([0.1, 0.4]))
    assert branches == [1, 1, 1, 2]


@pytest.mark.parametrize("k", range(1, 7))
def test_frictional_fallback_pair_is_the_pair_of_the_uncut_stage(frictional_params, k):
    # every operation is elementwise per branch, so the slow branch built
    # alone is the slow half of the uncut stage, and gives the same pieces
    p = frictional_params
    r = np.linspace(0.0, 10.0, 401)
    uncut = root_jets(p, r, k - 1).summed_kernel_roots()
    slow = profile_roots(p, r, k)
    assert np.array_equal(slow.lam0, uncut.lam0[:1])
    assert np.array_equal(slow.coeffs, uncut.coeffs[:, :, :, :1])
    for t in (0.5, 10.0, 1e3):
        got = profile_pair(k, p, ZERO, t, r)
        want = profile_pair(k, p, ZERO, t, r, uncut)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _stage_overflows(p, k, branches=2):
    with np.errstate(all="ignore"):
        stage = root_jets(p, np.array([error_radius(p)]), k - 1).summed_kernel_roots(branches)
    return not (np.isfinite(stage.lam0).all() and np.isfinite(stage.coeffs).all())


def _refused(p, k):
    try:
        check_order(p, k)
    except ModelError:
        return True
    return False


def test_check_order_refuses_where_the_uncut_stage_overflows_on_a_frictional_grid():
    # sigma up to 200 and sigma2 inside (sigma/2, sigma): validate refuses
    # sigma2 >= 77 (A^2 overflows at radius 10), the order check refuses
    # some k >= 1 of the rest.  It reads the slow branch alone, which on this
    # grid overflows exactly where the uncut stage does
    rng = np.random.default_rng(30)
    checked = refused = 0
    for sigma, ratio in zip(rng.uniform(1.0, 200.0, 300), rng.uniform(0.5, 1.0, 300)):
        p = ModelParams(3, float(sigma), 0.0, float(ratio * sigma))
        try:
            validate(p, ZERO)
        except ModelError:
            continue
        for k in range(1, 4):
            got = _refused(p, k)
            checked, refused = checked + 1, refused + got
            assert got == _stage_overflows(p, k, branches=1) == _stage_overflows(p, k), (p, k)
    assert (checked, refused) == (480, 144)


def test_check_order_at_sigma2_equal_to_sigma_reads_the_slow_branch_alone():
    # at sigma2 = sigma with 51.5 <= sigma <= 76.5 the fast branch's position
    # factor G^{-1} lambda_slow overflows at order 3 while the slow branch,
    # the one a frictional profile reads, stays finite: the uncut stage
    # overflows at k = 3 there, the profile's own stage, which never builds
    # the fast branch, neither overflows nor warns
    for sigma in (51.5, 60.0, 76.5):
        p = ModelParams(3, sigma, 0.0, sigma)
        validate(p, ZERO)
        assert [_refused(p, k) for k in range(4)] == [False] * 4
        assert _stage_overflows(p, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stage = profile_roots(p, np.array([error_radius(p)]), 3)
        assert np.isfinite(stage.coeffs).all()
    assert _refused(ModelParams(3, 51.0, 0.0, 51.0), 3) is False
    assert _stage_overflows(ModelParams(3, 51.0, 0.0, 51.0), 3) is False


def test_check_order_refuses_orders_outside_the_range(fractional_params):
    for k in (-1, profiles.MAX_PROFILE_ORDER + 1):
        with pytest.raises(ValueError, match=rf"profile order must be in \[0, 3\], got {k}$"):
            check_order(fractional_params, k)


def test_case_dispatch_and_mismatches(fractional_params, frictional_params):
    # the case is read off sigma1; a passed case that disagrees is refused
    t, r = 2.0, 0.5
    for k in (0, 1):
        with pytest.raises(ModelError, match="rate case positive_sigma1 does not match"):
            profile_pair(k, frictional_params, POS, t, r)
        with pytest.raises(ModelError, match="rate case zero_sigma1 does not match"):
            profile_pair(k, fractional_params, ZERO, t, r)


def test_unsupported_orders(fractional_params):
    with pytest.raises(ValueError, match="closed forms are catalogued for k in"):
        golden_modal(0, fractional_params)
    with pytest.raises(ValueError, match="closed forms are catalogued for k in"):
        golden_modal(3, fractional_params)
    with pytest.raises(ValueError, match="order k must be >= 0"):
        profile_pair(-1, fractional_params, POS, 1.0, 0.5)


def test_degenerate_viscoelastic_parameters_still_evaluate():
    # sigma2 = sigma collapses the strong-damping power into the restoring
    # power; profiles must stay finite and match the catalog there too
    p = ModelParams(3, 1.0, 0.25, 1.0)
    assert case_for(p) is POS
    rs, ts = reference_grid(p)
    for k in (1, 2):
        ref0, ref1 = golden_modal(k, p)
        for t in ts:
            a0, a1 = profile_pair(k, p, POS, t, rs)
            assert scaled_gap(a0, ref0.evaluate(t, rs)) < 1e-12
            assert scaled_gap(a1, ref1.evaluate(t, rs)) < 1e-12
