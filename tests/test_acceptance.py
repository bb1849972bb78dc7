"""Acceptance criteria, one test per suite, reported as single verdict lines.

Nine suites must pass. `rates_fractional` is red by design: its k=2 fit over
[1e2, 1e4] misses the -2 target by 0.0510 against the 0.05 tolerance, and
`sigmadamp verify` reports it as FAIL. Its test
prints that verdict and then checks two things instead of the verdict itself:
that the verdict agrees with the suite's own fit details, and that the k=2
error, split by datum, decays at the predicted rates (velocity-only at the
rate-table exponent, position-only sigma1/(sigma-sigma1) faster).

The lab object is shared across the module so error curves computed for one
criterion are reused by the later ones. The two split curves are computed
in the `rates_fractional` test alone, which roughly doubles its cost.
"""

import pytest

from sigmadamp.acceptance import CONFIG_FRACTIONAL, SLOPE_TOL, SUITES, AcceptanceLab
from sigmadamp.experiments import SpectralDataSpec, error_curve, gaussian, tail_window
from sigmadamp.fitting import fit_loglog
from sigmadamp.model import RateCase, error_exponent


@pytest.fixture(scope="module")
def lab():
    return AcceptanceLab(quad_tol=1e-6)


def _verdict(lab, capsys, name):
    (res,) = lab.run([name])
    verdict = "PASS" if res.passed else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {verdict} :: {res.message}")
    return res


def _run(lab, capsys, name):
    res = _verdict(lab, capsys, name)
    assert res.passed, f"{name}: {res.message}"


def test_suite_registry_order(lab):
    assert SUITES == (
        "rates_fractional",
        "rates_frictional",
        "weight_shift",
        "lower_band",
        "closed_forms",
        "jet_oracle",
        "cutoff_scaling",
        "high_frequency",
        "ode_residual",
        "order_improvement",
    )
    with pytest.raises(ValueError):
        lab.run(["nonesuch"])


def test_acceptance_rates_fractional(lab, capsys):
    res = _verdict(lab, capsys, "rates_fractional")

    # (a) the verdict is the suite's own details, read honestly
    details = res.details
    fits = {row["k"]: row for row in details["fits"]}
    assert fits[0]["gap"] <= SLOPE_TOL and fits[1]["gap"] <= SLOPE_TOL, res.message
    in_tol = all(row["gap"] <= SLOPE_TOL for row in fits.values())
    in_budget = details["elapsed_seconds"] < details["time_budget_seconds"]
    assert res.passed == (in_tol and in_budget), res.message

    # (b) the k=2 error is linear in (u0, u1): split it by datum on the fit window
    p, case = CONFIG_FRACTIONAL, RateCase.POSITIVE_SIGMA1
    combined = lab.curve(p, case, 2)
    times = combined.times[tail_window(combined)]
    velocity = error_curve(
        p, case, 2, SpectralDataSpec(gaussian(c=0.0), gaussian()),
        t_grid=times, quad_tol=lab.quad_tol,
    )
    position = error_curve(
        p, case, 2, SpectralDataSpec(gaussian(), gaussian(c=0.0)),
        t_grid=times, quad_tol=lab.quad_tol,
    )
    # the velocity family carries the r^{-2 sigma1} prefactor; the position one does not
    offset = -p.sigma1 / (p.sigma - p.sigma1)
    target = error_exponent(p, 2, case)
    vel_fit = fit_loglog(times, velocity.values, target)
    pos_fit = fit_loglog(times, position.values, target + offset)
    ratio_fit = fit_loglog(times, position.values / velocity.values, offset)
    combined_slope = fits[2]["slope"]
    with capsys.disabled():
        print(
            f"SPLIT rates_fractional k=2 :: velocity-only {vel_fit.slope:.4f} "
            f"(target {vel_fit.target:.4f}), position-only {pos_fit.slope:.4f} "
            f"(target {pos_fit.target:.4f}), ratio {ratio_fit.slope:.4f} "
            f"(target {ratio_fit.target:.4f}), combined {combined_slope:.4f}"
        )
    assert vel_fit.gap <= SLOPE_TOL
    assert pos_fit.gap <= SLOPE_TOL
    assert ratio_fit.gap <= SLOPE_TOL
    assert min(vel_fit.slope, pos_fit.slope) <= combined_slope <= max(vel_fit.slope, pos_fit.slope)


@pytest.mark.filterwarnings("ignore::sigmadamp.experiments.CancellationWarning")
def test_rates_budget_counts_cached_curves():
    # the time budget covers computing the fitted curves, so a rerun served
    # from the lab cache reports the same elapsed time as the first run
    small = AcceptanceLab(t_min=100.0, t_max=1000.0, per_decade=4)
    first = small.check_rates_frictional()
    again = small.check_rates_frictional()
    assert again.details["elapsed_seconds"] == first.details["elapsed_seconds"] > 0.0


def test_acceptance_rates_frictional(lab, capsys):
    _run(lab, capsys, "rates_frictional")


def test_acceptance_weight_shift(lab, capsys):
    _run(lab, capsys, "weight_shift")


def test_acceptance_lower_band(lab, capsys):
    _run(lab, capsys, "lower_band")


def test_acceptance_closed_forms(lab, capsys):
    _run(lab, capsys, "closed_forms")


def test_acceptance_jet_oracle(lab, capsys):
    _run(lab, capsys, "jet_oracle")


def test_acceptance_cutoff_scaling(lab, capsys):
    _run(lab, capsys, "cutoff_scaling")


def test_acceptance_high_frequency(lab, capsys):
    _run(lab, capsys, "high_frequency")


def test_acceptance_ode_residual(lab, capsys):
    _run(lab, capsys, "ode_residual")


def test_acceptance_order_improvement(lab, capsys):
    _run(lab, capsys, "order_improvement")
