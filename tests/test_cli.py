"""End-to-end runs of the command line front end, in process."""

import json
import math

import pytest

from sigmadamp import cli
from sigmadamp.cli import ComputationError, _stable_details, dumps17, main

FRACTIONAL = ["--dim", "3", "--sigma", "1", "--sigma1", "0.25", "--sigma2", "0.75"]
FRICTIONAL = ["--dim", "1", "--sigma", "1", "--sigma1", "0", "--sigma2", "0.8"]

ignore_cancellation = pytest.mark.filterwarnings(
    "ignore::sigmadamp.experiments.CancellationWarning"
)


# ---------------------------------------------------------------- validate


def test_validate_fractional(tmp_path, capsys):
    code = main(["validate", *FRACTIONAL, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "case: positive_sigma1" in out
    assert "valid: yes" in out
    assert "oscillation band: none" in out
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["schema_version"] == 1
    assert report["valid"] is True
    assert report["params"] == {"dim": 3, "sigma": 1.0, "sigma1": 0.25, "sigma2": 0.75, "s": 0.0}
    assert report["oscillation_band"] is None
    assert report["eps_star"] == 0.5


def test_validate_reports_oscillation_band(tmp_path, capsys):
    code = main(["validate", *FRICTIONAL, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "oscillation band: [" in out
    report = json.loads((tmp_path / "validate.json").read_text())
    lo, hi = report["oscillation_band"]
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(1.9206486159732264, rel=1e-12)


def test_validate_rejects_bad_ordering(tmp_path, capsys):
    code = main(
        ["validate", "--dim", "3", "--sigma1", "0.6", "--sigma2", "0.75", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "valid: no" in out
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["valid"] is False
    assert "error" in report


# ------------------------------------------------------------------- rates


def test_rates_table(tmp_path, capsys):
    code = main(["rates", *FRACTIONAL, "--k", "0,1,2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "k=0" in out and "k=2" in out
    report = json.loads((tmp_path / "rates.json").read_text())
    exponents = {row["k"]: row["exponent"] for row in report["rates"]}
    assert exponents[0] == pytest.approx(-2.0 / 3.0, rel=1e-15)
    assert exponents[1] == pytest.approx(-4.0 / 3.0, rel=1e-15)
    assert exponents[2] == pytest.approx(-2.0, rel=1e-15)


def test_rates_rejects_invalid_params(capsys):
    code = main(["rates", "--dim", "1", "--sigma1", "0.25", "--sigma2", "0.75"])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err


# ----------------------------------------------------------------- goldens


def test_goldens_fractional_flags_corrections(tmp_path, capsys):
    code = main(["goldens", *FRACTIONAL, "--k", "1,2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "corrected=[1]" in out  # order-1 position term with the time factor
    assert "corrected=[6]" in out  # order-2 position term with the radial power
    report = json.loads((tmp_path / "goldens.json").read_text())
    assert report["all_passed"] is True
    assert {row["component"] for row in report["comparisons"]} == {"position", "velocity"}


def test_goldens_frictional_catalog_is_verbatim(capsys):
    code = main(["goldens", *FRICTIONAL, "--k", "1,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "corrected=[]" in out
    assert "FAIL" not in out


def test_goldens_rejects_uncatalogued_order(capsys):
    code = main(["goldens", *FRACTIONAL, "--k", "0"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


# ------------------------------------------------------------------- curve


@ignore_cancellation
def test_curve_writes_reproducible_files(tmp_path, capsys):
    flags = [
        "curve",
        *FRICTIONAL,
        "--k",
        "1",
        "--t-min",
        "10",
        "--t-max",
        "1000",
        "--per-decade",
        "5",
    ]
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main([*flags, "--out", str(first)]) == 0
    assert main([*flags, "--out", str(second)]) == 0
    out = capsys.readouterr().out
    assert "fitted slope" in out
    csv_name = "curve_zero_sigma1_k1_gaussian.csv"
    json_name = "curve_zero_sigma1_k1_gaussian.json"
    assert (first / csv_name).read_bytes() == (second / csv_name).read_bytes()
    assert (first / json_name).read_bytes() == (second / json_name).read_bytes()
    payload = json.loads((first / json_name).read_text())
    assert payload["schema_version"] == 1
    assert set(payload["fit"]) == {"slope", "target", "gap", "residual"}
    assert len(payload["times"]) == len(payload["values"])


@ignore_cancellation
def test_curve_skips_fit_when_window_too_small(capsys):
    code = main(
        ["curve", *FRICTIONAL, "--k", "0", "--t-min", "10", "--t-max", "90", "--per-decade", "6"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fit skipped" in out


# ------------------------------------------------------------------ verify


def test_verify_single_suite(tmp_path, capsys):
    code = main(["verify", "--suites", "closed_forms", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] closed_forms" in out
    assert "1 passed, 0 failed" in out
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["schema_version"] == 1
    assert report["all_passed"] is True
    (row,) = report["results"]
    assert set(row) == {"name", "passed", "message", "details"}
    assert row["name"] == "closed_forms"


def test_verify_report_bytes_stable(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["verify", "--suites", "closed_forms", "--out", str(first)]) == 0
    assert main(["verify", "--suites", "closed_forms", "--out", str(second)]) == 0
    assert (first / "verify.json").read_bytes() == (second / "verify.json").read_bytes()


def test_verify_rejects_unknown_suite(capsys):
    code = main(["verify", "--suites", "nonesuch"])
    assert code == 2
    assert "unknown suites" in capsys.readouterr().err


def test_stable_details_drops_wall_clock():
    details = {"fits": [1, 2], "elapsed_seconds": 12.5, "time_budget_seconds": 120.0}
    assert _stable_details(details) == {"fits": [1, 2], "time_budget_seconds": 120.0}


# ----------------------------------------------------------- configuration


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dim": 1, "sigma1": 0.0, "sigma2": 0.8, "k": [1]}))
    code = main(["validate", "--config", str(cfg), "--sigma2", "0.9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sigma2=0.9" in out


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dims": 3}))
    code = main(["validate", "--config", str(cfg)])
    assert code == 2
    assert "unknown keys: dims" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--k", "4"],  # order beyond the profile catalog
        ["curve", "--t-min", "100", "--t-max", "10"],
        ["curve", "--per-decade", "0"],
        ["curve", "--quad-tol", "-1"],
        ["rates", "--s", "nan"],  # non-finite inputs are configuration errors
        ["rates", "--s", "inf"],
        ["curve", "--s", "nan"],
        ["curve", "--t-max", "inf"],
        ["curve", "--quad-tol", "inf"],
    ],
)
def test_bad_flag_values_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_computation_failure_exits_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("quadrature fell over")

    monkeypatch.setattr(cli, "error_curve", boom)
    code = main(["curve", *FRICTIONAL, "--k", "1"])
    assert code == 3
    assert "computation error" in capsys.readouterr().err


# ----------------------------------------------------------- serialization


def test_dumps17_round_trips_floats():
    values = [1.0 / 3.0, 0.1, 1e-300, 123456789.123456789, -2.0]
    text = dumps17({"values": values})
    assert json.loads(text)["values"] == values


def test_dumps17_formats():
    assert dumps17(0.1) == "0.10000000000000001"
    assert dumps17(True) == "true"
    assert dumps17(None) == "null"
    assert dumps17([]) == "[]"
    assert dumps17({}) == "{}"
    assert dumps17({"k": 2}) == '{\n  "k": 2\n}'


def test_dumps17_rejects_non_finite():
    with pytest.raises(ComputationError):
        dumps17(math.inf)
    with pytest.raises(ComputationError):
        dumps17({"x": math.nan})
    with pytest.raises(ComputationError):
        dumps17(object())
