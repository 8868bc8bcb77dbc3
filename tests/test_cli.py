"""Command-line contract: exit codes, serialization, determinism."""

import json

import pytest

from lfock.cli import main


def test_verify_suite_passes(capsys):
    assert main(["verify", "matel"]) == 0
    out = capsys.readouterr().out
    assert "suite matel: PASS" in out


def test_verify_unknown_suite_is_usage_error():
    assert main(["verify", "nonsense"]) == 1


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_bad_grids_are_usage_errors():
    assert main(["fig1", "--grid", "oops"]) == 1
    assert main(["fig1", "--grid", "1:0:5"]) == 1
    assert main(["fig1", "--grid", "0:1:1"]) == 1
    assert main(["fig2", "--truncation", "-3"]) == 1


def test_bad_state_kind_is_usage_error():
    assert main(["state", "weird"]) == 1


def test_out_of_domain_xi_exits_three(capsys):
    assert main(["state", "lambda_ss", "--xi", "0.95", "--lambda", "1"]) == 3
    err = capsys.readouterr().err
    assert "lfock:" in err


def test_state_dump_csv(tmp_path, capsys):
    path = tmp_path / "ket.csv"
    assert main(["state", "lambda_ket", "-n", "1", "--lambda", "1",
                 "--out", str(path)]) == 0
    text = path.read_text()
    lines = text.splitlines()
    meta = json.loads(lines[0][2:])
    assert lines[0].startswith("# ")
    assert meta["kind"] == "lambda_ket" and meta["n"] == 1
    assert meta["residual"] <= 1e-10
    assert lines[1] == "index,standard_re,standard_im,lambda_re,lambda_im"
    assert "0.7071067811865476" in text  # (|0> + |1>)/sqrt 2 components
    assert text.endswith("\n")


def test_state_dump_json(capsys):
    assert main(["state", "f2", "--alpha", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["norm_constant"] == pytest.approx(
        0.6623264148718883, rel=1e-12)
    assert payload["standard"][0][1] == 0.0  # real coefficients


def test_state_complex_argument(capsys):
    assert main(["state", "lambda_cs", "--alpha", "0.5,0.5",
                 "--lambda", "0.5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["alpha"] == [0.5, 0.5]
    assert payload["metadata"]["residual"] < 1e-9


def test_fig1_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["fig1", "--alpha", "1", "--grid", "0:2:5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    meta = json.loads(lines[0][2:])
    assert meta["command"] == "fig1"
    assert lines[1] == "lambda,Q[alpha=1]"
    assert len(lines) == 2 + 5


def test_fig3a_vacuum_point_serializes_empty(tmp_path):
    path = tmp_path / "f3.csv"
    assert main(["fig3a", "--lambda", "1", "--grid", "0:0.2:3",
                 "--out", str(path)]) == 0
    rows = path.read_text().splitlines()
    assert rows[2] == "0.0,"  # Mandel Q undefined on the vacuum: empty cell


def test_fig2_guarded_points_warn_and_stay_empty(tmp_path, capsys):
    path = tmp_path / "f2.csv"
    assert main(["fig2", "--lambda", "3", "--grid", "0.8:0.88:3",
                 "--out", str(path)]) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "empty cells" in err
    rows = path.read_text().splitlines()
    assert rows[-1].endswith(",,")  # both variance cells empty past the guard


def test_fig2_json_round_trip(capsys):
    assert main(["fig2", "--lambda", "0.5", "--grid", "0.1:0.3:3",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["axis_name"] == "xi"
    assert payload["metadata"]["lambdas"] == [0.5]
    col = payload["series"]["var_p[lambda=0.5]"]
    assert len(col) == 3 and all(v is not None for v in col)


@pytest.mark.parametrize("argv", [
    ["state", "lambda_ket", "-n", "2", "--lambda", "inf"],
    ["state", "lambda_ss", "--lambda", "nan"],
    ["state", "lambda_cs", "--alpha", "1,nan"],
    ["state", "lambda_ss", "--xi=-inf"],
    ["fig1", "--alpha", "inf"],
    ["fig1", "--grid", "0:inf:5"],
    ["fig2", "--lambda", "nan"],
    ["fig3a", "--grid", "nan:0.5:3"],
])
def test_non_finite_parameters_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    assert "finite" in capsys.readouterr().err


def test_normalization_overflow_is_a_domain_error(capsys):
    # exp(-lam Re(alpha) - |alpha|^2/2) = exp(798) overflows a double
    assert main(["state", "lambda_cs", "--alpha", "-2", "--lambda", "400"]) == 3
    assert "overflows" in capsys.readouterr().err
