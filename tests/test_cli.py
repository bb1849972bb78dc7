"""End-to-end runs of the command line front end, in process."""

import ctypes
import json
import math
import platform
import types

import pytest

from sigmadamp import cli
from sigmadamp.cli import dumps17, main

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


@pytest.mark.filterwarnings("always::sigmadamp.experiments.CancellationWarning")
def test_curve_warnings_name_no_source_file(capsys):
    # a warning's path and line depend on where the package lives; stderr
    # must be the same bytes from every checkout
    code = main(["curve", *FRICTIONAL, "--k", "1", "--t-min", "1000", "--per-decade", "2"])
    err = capsys.readouterr().err
    assert code == 0
    lines = err.splitlines()
    assert lines and all(
        line.startswith("warning: CancellationWarning: error integrand lost precision")
        for line in lines
    )
    assert ".py" not in err


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


@ignore_cancellation
def test_parameter_reports_keep_their_key_order(tmp_path, capsys):
    # every parameter report opens with its schema version and parameters,
    # then its own fields in the order they were always written
    fields = {
        "validate.json": ["valid", "case", "delta", "rate_step", "eps_star", "oscillation_band"],
        "rates.json": ["case", "rates"],
        "goldens.json": ["case", "rtol", "comparisons", "all_passed"],
        "curve_zero_sigma1_k0_gaussian.json": [
            "case", "k", "data", "target_rate", "cancellation_hits", "times", "values", "fit",
        ],
    }
    curve = ["curve", "--k", "0", "--t-min", "100", "--t-max", "1000", "--per-decade", "4"]
    for command in (["validate"], ["rates", "--k", "0,1"], ["goldens", "--k", "1"], curve):
        assert main([*command, *FRICTIONAL, "--out", str(tmp_path)]) == 0
    assert main(["validate", "--dim", "0", "--out", str(tmp_path / "bad")]) == 2
    fields["bad/validate.json"] = ["valid", "error"]
    for name, names in fields.items():
        report = json.loads((tmp_path / name).read_text())
        assert list(report) == ["schema_version", "params", *names], name


# ----------------------------------------------------------- configuration


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dim": 1, "sigma1": 0.0, "sigma2": 0.8}))
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


def test_config_file_holds_only_the_subcommands_flags(tmp_path, capsys):
    # validate reads no profile order, so a file naming one is refused
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dim": 1, "sigma1": 0.0, "sigma2": 0.8, "k": [1]}))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "unknown keys: k" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, values",
    [
        ("curve", {"quad_tol": "abc"}),  # a string where a number goes
        ("validate", {"sigma": "x"}),
        ("rates", {"s": "1"}),
        ("curve", {"t_min": None}),
        ("verify", {"out": 5}),  # a number where a directory name goes
        ("validate", {"dim": True, "sigma1": 0, "sigma2": 0.8}),  # not read as dim = 1
        ("curve", {"per_decade": 2.5}),  # refused as a flag, so refused in a file
        ("curve", {"data": ["gaussian", ["moment_free"]]}),  # nested value
        ("verify", {"suites": ["closed_forms", "closed_forms"]}),  # a repeated suite
    ],
)
def test_bad_config_values_exit_2(command, values, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "valid: yes" not in captured.out


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
        ["rates", "--k", "2,2"],  # a repeated order would be computed twice
        ["curve", "--k", "3,3"],
        ["verify", "--sigma", "1.7"],  # flags the subcommand does not read
        ["validate", "--k", "3"],
        ["rates", "--quad-tol", "1e-3"],
        ["goldens", "--data", "moment_free"],
        ["verify", "--quad", "1e-3"],  # a prefix of a flag is not that flag
        ["verify", "--s", "1"],
        ["verify", "--suites", "closed_forms,closed_forms"],  # a repeated suite would run twice
        ["curve", "--dim", "343"],  # r^(n-1) overflows out to the error radius
        ["curve", "--dim", "344"],  # so does Gamma(n/2) in the sphere measure
    ],
)
def test_bad_flag_values_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("k", [[2.7], [True], [2, 2], "1,1", "2,x", 2.7, True, []])
def test_config_file_orders_must_be_distinct_integers(k, tmp_path, capsys):
    # neither truncated (2.7 -> 2), nor read as a number (true -> 1), nor
    # repeated; an unparsable string is a configuration error, not a traceback
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k": k}))
    assert main(["rates", "--config", str(cfg)]) == 2
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


def test_tolerance_below_roundoff_exits_3(capsys):
    # 1e-30 is below the integrand's roundoff: the quadrature stops at once
    # instead of splitting noise-limited panels forever
    code = main(["curve", *FRACTIONAL, "--k", "0,2", "--t-min", "1000", "--quad-tol", "1e-30"])
    assert code == 3
    assert "below the roundoff" in capsys.readouterr().err


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process, and a call leaves nothing in it
    # for the next: a config file's values do not become defaults
    cli._build_parser.cache_clear()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dim": 1, "sigma1": 0.0, "sigma2": 0.8}))
    assert main(["validate", "--config", str(cfg), "--sigma2", "0.9"]) == 0
    assert "sigma2=0.9" in capsys.readouterr().out
    assert main(["validate"]) == 0
    assert "sigma2=0.75" in capsys.readouterr().out
    assert main(["validate", "--help"]) == 0
    assert "usage: sigmadamp validate" in capsys.readouterr().out
    assert main(["validate", "--k", "3"]) == 2
    assert "unrecognized arguments: --k 3" in capsys.readouterr().err
    assert cli._build_parser.cache_info().misses == 1
    assert cli._build_parser.cache_info().hits == 3


# -------------------------------------------------------------- heap policy

SMALL_K3 = ["curve", "--k", "3", "--t-min", "100", "--t-max", "1000", "--per-decade", "5"]


@pytest.fixture
def fresh_heap_pad():
    """Let main look mallopt up again, in the test and after it."""
    cli._pad_heap_top.cache_clear()
    yield
    cli._pad_heap_top.cache_clear()


@ignore_cancellation
@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="M_TOP_PAD is glibc's")
def test_repeated_curve_keeps_its_heap_mapped(capsys):
    # with glibc's default 128 KiB trim, each integrand call faulted its
    # arrays in again: about 1,000 minor faults on the second run; 8-22 padded
    import resource  # POSIX only, as glibc is

    def faults_of_one_run():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(SMALL_K3) == 0
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults_of_one_run()
    assert faults_of_one_run() < 200


def test_main_runs_where_libc_has_no_mallopt(fresh_heap_pad, monkeypatch, capsys):
    monkeypatch.setattr(ctypes, "pythonapi", types.SimpleNamespace())
    assert main(["validate"]) == 0


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
    # an integral float keeps a fraction; an int stays bare
    assert dumps17(1.0) == "1.0"
    assert dumps17(-2.0) == "-2.0"
    assert dumps17(0.0) == "0.0"
    assert dumps17(1e16) == "10000000000000000.0"
    assert dumps17(1) == "1"


def test_dumps17_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite number in report: inf"):
        dumps17(math.inf)
    with pytest.raises(ValueError, match="non-finite number in report: nan"):
        dumps17({"x": math.nan})
    with pytest.raises(ValueError, match="cannot serialize object to JSON"):
        dumps17(object())
