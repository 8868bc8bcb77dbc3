"""Command-line contract: exit codes, serialization, determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lfock.cli import _STATE_KINDS, main
from lfock.operators import build_ladders, eigen_residual


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


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's src/ first on the path."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def test_squeezed_vacuum_lambda_column_regression(capsys):
    # the dense triangular solve printed a peak of 95900.8 here, exit 0;
    # 60-digit mpmath and the inverse T-operator give 52000.2
    assert main(["state", "squeezed_vacuum", "--lambda", "-3",
                 "--xi", "0.3,-0.35", "--format", "json"]) == 0
    lamc = json.loads(capsys.readouterr().out)["lambda"]
    assert round(max(math.hypot(re, im) for re, im in lamc), 1) == 52000.2


def test_no_command_imports_scipy():
    # every verify suite, every figure and every state kind in one interpreter:
    # scipy is a test-only dependency, and importing it would dominate a job
    code = ("import os, sys\n"
            "from lfock.cli import _STATE_KINDS, _VERIFY_SUITES, main\n"
            "runs = [['verify', s, '--out', os.devnull] for s in _VERIFY_SUITES]\n"
            "runs += [[f, '--grid', '0.1:0.3:2', '--out', os.devnull]\n"
            "         for f in ('fig1', 'fig2', 'fig3a', 'fig3b')]\n"
            "runs += [['state', k, '--lambda', '0.7', '--out', os.devnull]\n"
            "         for k in _STATE_KINDS]\n"
            "for argv in runs:\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, kind, lam, z", [
    (["lambda_ket", "-n", "5", "--lambda", "-1.3"], "number", -1.3, 5.0),
    (["lambda_cs", "--alpha", "1,0.5", "--lambda", "0.6"], "lowering", 0.0,
     1 + 0.5j),
    (["lambda_ss", "--xi", "0.3,0.2", "--lambda", "0.8"], "kernel", 0.8,
     0.3 + 0.2j),
    (["squeezed_vacuum", "--xi", "0.5,-0.4", "--lambda", "2"], "kernel", 0.0,
     0.5 - 0.4j),
])
def test_dump_residuals_match_dense_ladders(argv, kind, lam, z, capsys):
    # the O(N) shifts reproduce the dense truncated-matrix residuals
    assert main(["state", *argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    std = np.array([complex(re, im) for re, im in payload["standard"]])
    v = np.concatenate([std, np.zeros(2)])
    a, _, adl = build_ladders(v.shape[0], lam)
    M, z = {"number": (adl @ a, z), "lowering": (a, z),
            "kernel": (a - z * adl, 0.0)}[kind]
    want = eigen_residual(M, v, z)
    assert abs(payload["metadata"]["residual"] - want) <= 1e-14


def test_near_unit_xi_squeezed_vacuum_runs_in_linear_memory(tmp_path):
    # 40001 standard components: the dense route wanted three 40003 x 40003
    # complex ladders and a 40001 x 40001 expansion matrix (tens of GB)
    path = tmp_path / "sv.csv"
    tracemalloc.start()
    try:
        assert main(["state", "squeezed_vacuum", "--xi", "0.999999",
                     "--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6
    rows = path.read_text().splitlines()[2:]
    assert len(rows) == 40001
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))


def test_lambda_ket_norm_gram_streams_in_linear_memory(tmp_path):
    # norm_gram is c^H G c over 10001 rows; the whole Gram matrix is 800 MB
    path = tmp_path / "ket.csv"
    tracemalloc.start()
    try:
        assert main(["state", "lambda_ket", "-n", "10000", "--lambda", "1.3",
                     "--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    meta = json.loads(path.read_text().splitlines()[0][2:])
    assert meta["norm_gram"] == pytest.approx(1.0, abs=1e-12)


def test_cli_import_loads_no_scipy_mpmath_or_logging():
    # each of these would add to every command's start-up time, and
    # lfock.verify is compiled only for the verify command
    done = _python("-c", "import sys, lfock.cli\n"
                         "print(sorted(m for m in ('scipy', 'mpmath', 'logging',"
                         " 'lfock.verify') if m in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_names_every_verify_suite():
    from lfock import cli, verify
    assert sorted(cli._VERIFY_SUITES) == sorted(verify.SUITES)


def test_coherent_coefficient_overflow_is_a_clean_domain_error():
    # C_n passes 1e308 inside the truncation: exit 3 naming the overflow,
    # not raw numpy warnings and a truncation message
    done = _python("-m", "lfock.cli", "state", "lambda_cs",
                   "--alpha", "-2", "--lambda", "300")
    assert done.returncode == 3
    assert "overflows the double range" in done.stderr
    assert "RuntimeWarning" not in done.stderr


@pytest.mark.parametrize("argv", [
    ["state", "lambda_ket", "-n", "2", "--lambda", "1e200"],
    ["fig2", "--lambda", "1e200"],
])
def test_lambda_with_overflowing_square_is_a_usage_error(argv, capsys):
    # lam^2 = inf used to give NaN coefficients / an all-empty fig2, exit 0
    assert main(argv) == 1
    assert "finite square" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lambda_ss", "--lambda", "4", "--xi=-0.6"],
    ["lambda_cs", "--lambda", "3", "--alpha", "-2"],
])
def test_cancelling_norm_gram_is_left_out_with_a_warning(argv, capsys):
    # c^H G c cancels over these alternating frame series (it printed
    # 1.000032651448759 and 0.9999994959253147); the standard column is
    # exact, so the dump keeps exit 0 and drops only norm_gram
    assert main(["state", *argv, "--format", "json"]) == 0
    out = capsys.readouterr()
    meta = json.loads(out.out)["metadata"]
    assert "norm_gram" not in meta
    assert meta["norm_euclidean"] == pytest.approx(1.0, abs=1e-14)
    assert "norm_gram omitted" in out.err and "condition number" in out.err


def test_cancelling_truncated_coherent_image_exits_three(capsys):
    # C_0 = e^6 and 90 frame terms: the e^{lam a} image of the truncated
    # series cancels (condition number 2.3e7) and was 2.9e-9 off its
    # 60-digit value with exit 0
    assert main(["state", "lambda_cs", "--lambda", "4", "--alpha=-2,1",
                 "--truncation", "90"]) == 3
    assert "cancels" in capsys.readouterr().err
