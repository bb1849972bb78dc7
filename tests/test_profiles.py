"""Jet-built asymptotic profiles against the catalogued closed forms."""

import numpy as np
import pytest

from sigmadamp import profiles
from sigmadamp.kernels import kernel_jets
from sigmadamp.model import CaseMismatch, ModelParams, RateCase, case_for, eps_star
from sigmadamp.profiles import (
    UnsupportedOrder,
    golden_modal,
    profile_A,
    profile_B,
    profile_pair,
)

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
    ref0, ref1 = golden_modal(k, POS, p)
    rs, ts = reference_grid(p)
    for t in ts:
        a0, a1 = profile_A(k, p, t, rs)
        assert scaled_gap(a0, ref0.evaluate(t, rs)) < 1e-12
        assert scaled_gap(a1, ref1.evaluate(t, rs)) < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_frictional_profiles_match_closed_forms(frictional_params, k):
    p = frictional_params
    ref0, ref1 = golden_modal(k, ZERO, p)
    rs, ts = reference_grid(p)
    for t in ts:
        b0, b1 = profile_B(k, p, t, rs)
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
        ref0, ref1 = golden_modal(k, case, p)
        assert ref0.corrected_indices() == want0, (case, k)
        assert ref1.corrected_indices() == want1, (case, k)
    # the repaired terms say how they differ from the recorded form
    ref0, _ = golden_modal(1, POS, fractional_params)
    assert "time factor" in ref0.terms[1].note
    ref0, _ = golden_modal(2, POS, fractional_params)
    assert "radial power" in ref0.terms[6].note


def test_profiles_vanish_at_order_zero(fractional_params, frictional_params):
    assert profile_A(0, fractional_params, 3.0, 0.5) == (0.0, 0.0)
    assert profile_B(0, frictional_params, 3.0, 0.5) == (0.0, 0.0)
    rs = np.array([0.2, 0.4])
    a0, a1 = profile_A(0, fractional_params, 3.0, rs)
    assert np.all(a0 == 0.0) and np.all(a1 == 0.0)


def test_profile_orders_telescope_by_jet_shells(fractional_params, frictional_params):
    # profile(k+1) - profile(k) must equal the j+m = k-th coefficient shell
    for p, case in [(fractional_params, POS), (frictional_params, ZERO)]:
        for k in (0, 1, 2):
            for t, r in [(2.0, 0.3), (7.0, 0.45)]:
                lo0, lo1 = profile_pair(k, p, case, t, r)
                hi0, hi1 = profile_pair(k + 1, p, case, t, r)
                X = kernel_jets(p, t, r, k)
                if case is POS:
                    shell0 = sum(
                        X.pos_fast.coeff[j][k - j] - X.pos_slow.coeff[j][k - j]
                        for j in range(k + 1)
                    )
                    shell1 = sum(
                        X.vel_slow.coeff[j][k - j] - X.vel_fast.coeff[j][k - j]
                        for j in range(k + 1)
                    )
                else:
                    shell0 = sum(-X.pos_slow.coeff[j][k - j] for j in range(k + 1))
                    shell1 = sum(X.vel_slow.coeff[j][k - j] for j in range(k + 1))
                assert hi0 - lo0 == pytest.approx(shell0, rel=1e-11, abs=1e-14)
                assert hi1 - lo1 == pytest.approx(shell1, rel=1e-11, abs=1e-14)


def test_first_order_profiles_are_the_kernel_constant_terms(fractional_params):
    # cross-module identity: the k=1 profile pair is exactly the difference
    # of kernel constant terms
    p = fractional_params
    for t, r in [(1.5, 0.25), (9.0, 0.6)]:
        X = kernel_jets(p, t, r, 0)
        a0, a1 = profile_A(1, p, t, r)
        assert a0 == pytest.approx(X.pos_fast.coeff[0][0] - X.pos_slow.coeff[0][0], rel=1e-14)
        assert a1 == pytest.approx(X.vel_slow.coeff[0][0] - X.vel_fast.coeff[0][0], rel=1e-14)


def test_one_kernel_pass_per_profile_pair(monkeypatch, fractional_params, frictional_params):
    calls = []
    real = profiles.kernel_jets

    def counted(p, t, r, order):
        calls.append(order)
        return real(p, t, r, order)

    monkeypatch.setattr(profiles, "kernel_jets", counted)
    for p, case in ((fractional_params, POS), (frictional_params, ZERO)):
        for k in (1, 2, 3):
            profile_pair(k, p, case, 2.0, np.array([0.1, 0.4]))
    assert calls == [0, 1, 2, 0, 1, 2]


def test_case_dispatch_and_mismatches(fractional_params, frictional_params):
    t, r = 2.0, 0.5
    assert profile_pair(1, fractional_params, POS, t, r) == profile_A(1, fractional_params, t, r)
    assert profile_pair(1, frictional_params, ZERO, t, r) == profile_B(1, frictional_params, t, r)
    with pytest.raises(CaseMismatch):
        profile_A(1, frictional_params, t, r)
    with pytest.raises(CaseMismatch):
        profile_B(1, fractional_params, t, r)
    with pytest.raises(CaseMismatch):
        golden_modal(1, POS, frictional_params)
    with pytest.raises(CaseMismatch):
        golden_modal(1, ZERO, fractional_params)


def test_unsupported_orders(fractional_params):
    with pytest.raises(UnsupportedOrder):
        golden_modal(0, POS, fractional_params)
    with pytest.raises(UnsupportedOrder):
        golden_modal(3, POS, fractional_params)
    with pytest.raises(ValueError):
        profile_A(-1, fractional_params, 1.0, 0.5)


def test_degenerate_viscoelastic_parameters_still_evaluate():
    # sigma2 = sigma collapses the strong-damping power into the restoring
    # power; profiles must stay finite and match the catalog there too
    p = ModelParams(3, 1.0, 0.25, 1.0)
    assert case_for(p) is POS
    rs, ts = reference_grid(p)
    for k in (1, 2):
        ref0, ref1 = golden_modal(k, POS, p)
        for t in ts:
            a0, a1 = profile_A(k, p, t, rs)
            assert scaled_gap(a0, ref0.evaluate(t, rs)) < 1e-12
            assert scaled_gap(a1, ref1.evaluate(t, rs)) < 1e-12
