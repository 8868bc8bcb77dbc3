"""Command-line contract: exit codes, serialization, determinism."""

import ast
import contextlib
import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tokenize
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfock import cli
from lfock.cli import _STATE_KINDS, _build_parser, main
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


def test_fig3a_vacuum_point_serializes_empty(capsys):
    # at xi = 0 the squeezed state is the vacuum, whose lambda-frame weights
    # lam^(2m) / (m! L_m) have a nonzero mean for lam != 0: fig3a prints the
    # Q that fig1 prints at alpha = 0, and only a zero mean leaves it empty
    def row(argv, i):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return out.splitlines()[i]

    for lam in ("0.5", "1", "-1.5"):
        for truncation in ("auto", "40"):
            q3a = row(["fig3a", "--truncation", truncation, f"--lambda={lam}",
                       "--grid=-0.1:0.1:3"], 3)
            q1 = row(["fig1", "--truncation", truncation, "--alpha=0",
                      f"--grid={lam}:{lam}:2"], 2)
            assert abs(float(q3a.split(",")[1]) - float(q1.split(",")[1])) \
                <= 1e-12, (lam, truncation)
    # the standard-basis vacuum, and the lambda frame at lam = 0, have mean 0
    assert row(["fig3b", "--lambda=1", "--grid=-0.1:0.1:3"], 3) == "0.0,"
    assert row(["fig3a", "--lambda=0", "--grid=-0.1:0.1:3"], 3) == "0.0,"


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


def _is_finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# one number's text that is not a finite float: non-finite, overflowing,
# empty or malformed, and never holding the ',' or ':' separators
_BAD_PART = st.one_of(
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "1e999",
                     "-1e999", "", " ", "one", "1..5", "0x10", "1e", "--1"]),
    st.text("0123456789.eE+-naif ", max_size=8).filter(
        lambda t: not _is_finite_number(t)))
_BAD_FLOAT = _BAD_PART | st.builds("{},{}".format, _FINITE, _FINITE)
_BAD_COMPLEX = st.one_of(
    _BAD_PART,
    st.builds("{},{}".format, _FINITE, _BAD_PART),
    st.builds("{},{}".format, _BAD_PART, _FINITE),
    st.builds("{},{},{}".format, _FINITE, _FINITE, _FINITE),
    st.sampled_from([",", "1,", ",1", "1,,2", "1,2,"]))
# every float repr holds '.', 'e', 'inf' or 'nan', so none parses as an int
_NON_INT = st.sampled_from(["", " ", "2.5", "1e3", "x", "0x10", "auto1"]) \
    | st.floats().map(repr)
_STEPS = st.integers(2, 10**6).map(str)
_BAD_GRID = st.one_of(
    st.builds("{}:{}:{}".format, _BAD_PART, _FINITE, _STEPS),
    st.builds("{}:{}:{}".format, _FINITE, _BAD_PART, _STEPS),
    st.builds("{}:{}:{}".format, _FINITE, _FINITE, _NON_INT),
    st.builds("{}:{}:{}".format, _FINITE, _FINITE,
              st.integers(max_value=1).map(str)),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
             max_size=2, unique=True).map(sorted).filter(
        lambda p: p[0] < p[1]).map(lambda p: f"{p[1]!r}:{p[0]!r}:5"),
    st.sampled_from(["", "0:1", "0:1:2:3", "::", "0,1,5"]))


def _with(commands: list, option: str, values) -> st.SearchStrategy:
    return st.builds(lambda command, value: [*command, f"{option}={value}"],
                     st.sampled_from(commands), values)


_BAD_ARGV = st.one_of(
    _with([["state", "lambda_ket"], ["state", "lambda_ss"], ["fig2"], ["fig3a"]],
          "--lambda", _BAD_FLOAT),
    _with([["fig1"], ["state", "lambda_cs"], ["state", "f2"]], "--alpha",
          _BAD_COMPLEX),
    _with([["state", "lambda_ss"], ["state", "squeezed_vacuum"]], "--xi",
          _BAD_COMPLEX),
    _with([["fig1"], ["fig2"], ["fig3a"], ["fig3b"]], "--grid", _BAD_GRID),
    _with([["fig1"], ["fig3b"], ["state", "lambda_cs"]], "--truncation",
          _NON_INT | st.integers(max_value=0).map(str)),
    _with([["state", "lambda_ket"]], "--index", _NON_INT))


@given(_BAD_ARGV)
@settings(max_examples=200, deadline=None)
def test_malformed_arguments_are_usage_errors(argv):
    # every option value is given as --option=VALUE, so a leading '-' stays
    # the value; each case is refused while parsing, before any numerics
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) == 1
    assert "Traceback" not in err.getvalue()
    assert re.match(r"lfock( \w+)?: error: ", err.getvalue().splitlines()[-1])


_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _python(*args: str, text: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's src/ first on the path;
    stdout and stderr as str, or as the bytes written with text=False."""
    src = os.path.join(_ROOT, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=text, env=dict(os.environ, PYTHONPATH=path))


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
    # complex ladders and a 40001 x 40001 expansion matrix (tens of GB); the
    # truncation is explicit, as the auto one refuses this xi
    path = tmp_path / "sv.csv"
    tracemalloc.start()
    try:
        assert main(["state", "squeezed_vacuum", "--xi", "0.999999",
                     "--truncation", "40001", "--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6
    rows = path.read_text().splitlines()[2:]
    assert len(rows) == 40001
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))


@pytest.mark.parametrize("xi, code", [("0.9995", 3), ("0.999", 0)])
def test_squeezed_vacuum_refuses_a_tail_cut_at_the_term_cap(xi, code, capsys):
    # the auto truncation stops at 20000 terms; at |xi| 0.9995 the last one
    # is 2.6e-13 of the closed-form sum, and the cut series was printed,
    # renormalized, with residual 1.0e-4 and exit 0; at 0.999 it is 7.4e-22
    assert main(["state", "squeezed_vacuum", "--xi", xi, "--format", "json"]) == code
    out = capsys.readouterr()
    if code:
        assert out.err == ("lfock: truncation error: squeezed vacuum tail not "
                           "below 1e-20 of the norm at the term cap 20000; "
                           "|xi|=0.9995 too close to 1\n")
    else:
        assert json.loads(out.out)["metadata"]["residual"] < 1e-8


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


def test_truncated_squeezed_dump_streams_its_gram_rows_once(capsys, monkeypatch):
    # the dump's norm_gram is the construction's norm times C_0, its kappa
    # the construction's: one series and one pass over the 2N - 1 Gram rows
    from lfock import fock, states
    calls = []
    for module, name in ((states, "_frame_coeffs"),
                         (fock.LambdaExpansion, "norm_and_condition")):
        real = getattr(module, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, spy)
    assert main(["state", "lambda_ss", "--xi=0.1,-0.6", "--lambda", "3",
                 "--truncation", "300", "--format", "json"]) == 0
    meta = json.loads(capsys.readouterr().out)["metadata"]
    assert sorted(calls) == ["_frame_coeffs", "norm_and_condition"]
    assert meta["norm_gram"] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("argv, builder", [
    (["lambda_cs", "--alpha=1,0.5", "--lambda=2"], "_frame_coeffs"),
    (["lambda_ss", "--xi=0.3,0.1", "--lambda=-1"], "_frame_coeffs"),
    (["squeezed_vacuum", "--xi=0.3", "--lambda=2"], "_frame_coeffs"),
    (["canonical", "--alpha=1,-0.5", "--lambda=-2"], "_frame_coeffs"),
    (["lambda_cs", "--alpha=1", "--lambda=2", "--truncation=20"], "_frame_coeffs"),
    (["lambda_ss", "--xi=0.3", "--lambda=2", "--truncation=20"], "_frame_coeffs"),
    (["squeezed_vacuum", "--xi=0.3", "--lambda=2", "--truncation=20"], "to_lambda"),
    (["canonical", "--alpha=1", "--lambda=2", "--truncation=20"], "to_lambda"),
    (["f1", "--alpha=1", "--lambda=2"], "to_lambda"),
    (["f1", "--alpha=1", "--lambda=2", "--truncation=20"], "to_lambda"),
    (["f2", "--alpha=1", "--lambda=2"], "to_lambda"),
    (["f2", "--alpha=1", "--lambda=2", "--truncation=20"], "to_lambda"),
])
def test_each_dump_builds_its_lambda_column_once(argv, builder, monkeypatch):
    # the exact states' dumps (and the frame series lambda_cs and lambda_ss
    # take with --truncation) print coefficients from the one kernel; a dump
    # whose state is its printed vector prints that vector's finite expansion
    from lfock import fock, states
    calls = []
    for module, name in ((fock, "_frame_coeffs"), (states, "_frame_coeffs"),
                         (fock, "to_lambda")):
        real = getattr(module, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, spy)
    assert main(["state", *argv, "--out", os.devnull]) == 0
    assert calls == [builder]


@pytest.mark.parametrize("argv, rows", [
    (["lambda_cs", "--alpha=0", "--truncation=5"], 5),
    (["lambda_ss", "--xi=0", "--truncation=3"], 5),
    (["lambda_cs", "--alpha=0"], 1), (["lambda_ss", "--xi=0"], 1),
    (["squeezed_vacuum", "--xi=0", "--truncation=4"], 4),
])
def test_vacuum_dumps_print_their_truncation(argv, rows, capsys):
    assert main(["state", *argv, "--lambda=1.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + rows
    assert lines[2].endswith(",1.0,0.0,1.0,0.0")
    assert all(line.endswith(",0.0,0.0,0.0,0.0") for line in lines[3:])


def test_cli_import_loads_no_scipy_mpmath_or_logging():
    # each of these would add to every command's start-up time, and
    # lfock.verify and the oracle module lfock.operators are compiled only
    # for the verify command
    done = _python("-c", "import sys, lfock.cli\n"
                         "print(sorted(m for m in ('scipy', 'mpmath', 'logging',"
                         " 'lfock.verify', 'lfock.operators') if m in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_fig1_run_loads_no_numpy_ma(tmp_path):
    # np.unique pulls in numpy.ma, which adds its import time and peak
    # memory to every fig1 job
    out = tmp_path / "fig1.csv"
    done = _python("-c", "import sys\nfrom lfock.cli import main\n"
                         f"code = main(['fig1', '--grid', '0:5:60', '--out', {str(out)!r}])\n"
                         "print(code, 'numpy.ma' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 False"
    assert out.read_text().count("\n") == 62


_ORACLES = ("lfock.verify", "lfock.operators")
# the state command's payload module; no other command loads it
_DUMP = "lfock.dump"


@pytest.mark.parametrize("runs, code, absent, present", [
    ([], 0, ("numpy", _DUMP, "dataclasses"), ()),
    ([["--help"]], 0, ("numpy", _DUMP, "dataclasses"), ()),
    ([["state", "lambda_ss", "--lambda", "nan"]], 1, ("numpy", _DUMP, "dataclasses"),
     ()),
    ([["state", "lambda_ket", "-n", "2"]], 0,
     ("lfock.states", "lfock.stats", "lfock.sweeps", "lfock.families", *_ORACLES,
      "dataclasses"), (_DUMP,)),
    ([["state", "f1"]], 0,
     ("lfock.states", "lfock.stats", "lfock.sweeps", *_ORACLES, "dataclasses"),
     (_DUMP, "lfock.families")),
    ([["fig1", "--grid", "0:1:3"]], 0,
     ("lfock.states", "lfock.families", *_ORACLES, _DUMP, "dataclasses"), ()),
    ([[fig, "--grid", "0.1:0.3:2"] for fig in ("fig2", "fig3a", "fig3b")], 0,
     ("lfock.families", *_ORACLES, _DUMP, "dataclasses"), ("lfock.states",)),
    ([[fig, "--grid", "0.1:0.3:2"] for fig in ("fig2", "fig3a", "fig3b")]
     + [["state", kind] for kind in _STATE_KINDS], 0, (*_ORACLES, "dataclasses"),
     (_DUMP,)),
    ([["verify", "nosuch"]], 1, ("numpy", *_ORACLES, _DUMP, "dataclasses"), ()),
    ([["verify", "ladders"]], 0, (_DUMP, "dataclasses"), ("lfock.operators",)),
    ([["verify", "all"]], 0, (_DUMP, "dataclasses"), ("lfock.operators",)),
], ids=["import", "help", "usage-error", "lambda_ket", "f1", "fig1",
        "squeezed-figures", "every-figure-and-dump", "unknown-suite",
        "verify-ladders", "verify-all"])
def test_each_command_loads_only_the_modules_it_runs(runs, code, absent, present):
    # arguments are parsed before numpy loads, and each command then imports
    # only its own layers; a fresh interpreter per case, as each job runs.
    # No command imports dataclasses: each @dataclass would build its methods
    # through exec at import, about 1 ms a class
    done = _python("-c", "import contextlib, io, json, sys\n"
                         "from lfock.cli import main\n"
                         "codes = []\n"
                         f"for argv in {runs!r}:\n"
                         "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
                         "            contextlib.redirect_stderr(io.StringIO()):\n"
                         "        codes.append(main(argv))\n"
                         f"print(json.dumps([codes, [m for m in {absent!r}"
                         " if m in sys.modules], [m for m in "
                         f"{present!r} if m not in sys.modules]]))")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[code] * len(runs), [], []]


def test_every_module_stays_below_4096_parser_tokens():
    # each command compiles the modules it loads from source where bytecode
    # is not written, and the parser's token array doubles past 4096 tokens,
    # which raises the compile peak and every command's max RSS
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    package = os.path.join(_ROOT, "src", "lfock")
    sizes = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                sizes[name] = sum(tok.type not in skip
                                  for tok in tokenize.tokenize(fh.readline))
    assert sizes["fock.py"] > 3000
    assert {name: n for name, n in sizes.items() if n >= 4096} == {}


def _collector() -> tuple:
    return gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()


@pytest.mark.parametrize("argv, code", [
    (["fig1", "--grid", "0:1:3"], 0),
    (["state", "lambda_ss", "--lambda", "1", "--xi", "0.3"], 0),
    (["verify", "ladders"], 0),
    (["fig1", "--grid", "1:0:5"], 1),
    (["state", "lambda_ss", "--xi", "0.95", "--lambda", "1"], 3),
    (["--help"], 0),
], ids=["figure", "dump", "verify", "usage-error", "domain-error", "help"])
def test_in_process_main_leaves_the_collector_alone(argv, code, capsys):
    # only a process whose own command line main reads ends when it returns
    before = _collector()
    assert main(argv) == code
    assert _collector() == before


def test_main_freezes_on_an_exception_that_propagates(monkeypatch):
    # nothing else in this process freezes, so unfreezing restores it
    assert gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["lfock", "fig1"])

    def fail(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_dispatch", fail)
    try:
        with pytest.raises(RuntimeError, match="boom"):
            cli.main()
        assert gc.get_freeze_count() > 0
        assert gc.isenabled()  # back on after the command's imports
    finally:
        gc.unfreeze()


# the benchmark's job command: main reads the process's own command line
with open(os.path.join(_ROOT, "bench", "run.py"), encoding="utf-8") as _fh:
    _BENCH_CLI = ast.literal_eval(re.search(r"^CLI = (.+)$", _fh.read(),
                                            re.M).group(1))


@pytest.mark.parametrize("argv, code", [
    (["fig2", "--lambda", "3", "--grid", "0.8:0.88:3", "--out", "{out}"], 0),
    (["state", "lambda_ss", "--lambda", "1", "--xi", "0.3", "--format", "json"], 0),
    (["state", "lambda_ss", "--xi", "0.95", "--lambda", "1"], 3),
], ids=["figure-out", "dump", "domain-error"])
def test_a_cli_process_freezes_at_exit_and_prints_the_same_bytes(
        argv, code, tmp_path, capsys):
    def writing_to(name):
        return [str(tmp_path / name) if a == "{out}" else a for a in argv]

    assert main(writing_to("in_process")) == code
    want = capsys.readouterr()
    count = tmp_path / "freeze_count"
    # the count once main has returned: atexit runs before the shutdown
    # collections
    done = _python("-c", "import atexit, gc\n"
                         "atexit.register(lambda: open(%r, 'w').write("
                         "str(gc.get_freeze_count())))\n" % str(count)
                         + _BENCH_CLI, *writing_to("fresh"), text=False)
    assert int(count.read_text()) > 0
    assert (done.returncode, done.stdout, done.stderr) == (
        code, want.out.encode(), want.err.encode())
    if "{out}" in argv:
        assert (tmp_path / "fresh").read_bytes() == (tmp_path / "in_process").read_bytes()


@pytest.mark.parametrize("call, collected", [
    ("main()", False),
    ("main(sys.argv[1:])", True),
], ids=["own-command-line", "argv-list"])
def test_a_cli_process_imports_its_command_without_collections(
        call, collected, tmp_path):
    # numpy and the command's modules make tens of thousands of objects that
    # live until exit; where main reads the process's own command line, no
    # collection runs from the start of numpy's import (numpy enters
    # sys.modules then) to the freeze that ends the command's imports, and
    # the collector is on when main returns. With an argv list the same
    # probe sees collections, as main leaves a caller's collector as it was
    log = tmp_path / "gc.json"
    probe = ("import atexit, gc, json, sys\n"
             "during = []\n"
             "gc.callbacks.append(lambda phase, info: phase == 'start'"
             " and 'numpy' in sys.modules and not gc.get_freeze_count()"
             " and during.append(info['generation']))\n"
             "atexit.register(lambda: open(%r, 'w').write("
             "json.dumps([during, gc.isenabled()])))\n" % str(log))
    assert "main()" in _BENCH_CLI
    done = _python("-c", probe + _BENCH_CLI.replace("main()", call),
                   "fig1", "--grid", "0:1:3")
    assert done.returncode == 0, done.stderr
    during, enabled = json.loads(log.read_text())
    assert enabled
    assert bool(during) == collected, during


@pytest.mark.parametrize("argv", [
    ["fig1", "--grid", "0:1:3"],
    ["state", "lambda_ket", "-n", "2"],
])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    # the open() of a path under a missing directory raised a traceback
    path = tmp_path / "missing" / "x.csv"
    assert main([*argv, "--out", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"lfock: error: cannot write {path}: No such file or directory\n"


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


def test_squeezed_dump_whose_tail_bound_fails_is_a_truncation_error():
    # C_0 = 1.07e39 here and the coefficients' l1 mass 1.4e104: a rule that
    # stopped where the last diagonal term fell below 1e-20 of the total
    # printed 1025 rows, exit 0, dropping a tail bounded only by 7.9e62
    done = _python("-m", "lfock.cli", "state", "lambda_ss", "--xi=-0.2496",
                   "--lambda=30")
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == ("lfock: truncation error: series tail bound not "
                           "below 1e-14 within the 803-term horizon (best "
                           "bound 1.4e-10)\n")


@pytest.mark.parametrize("argv, code", [
    (["lambda_cs", "--alpha=0", "--lambda=1.3"], 0),
    (["lambda_ss", "--xi=0", "--lambda=1.3"], 0),
    (["lambda_cs", "--alpha=1", "--lambda=30"], 0),  # coefficients underflow
    (["lambda_cs", "--alpha=40", "--lambda=0"], 3),  # C_0 underflows
    (["lambda_cs", "--alpha=12", "--lambda=30"], 0),  # cut past 512 terms
])
def test_tail_cuts_raise_no_numpy_warning(argv, code):
    # the cuts read closed-form logs, never the logs of evaluated
    # coefficients, where an underflow to 0 gives -inf - -inf
    done = _python("-W", "error::RuntimeWarning", "-m", "lfock.cli", "state",
                   *argv, "--out", os.devnull)
    assert done.returncode == code, done.stderr
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr


def test_family_series_past_its_horizon_is_a_truncation_error():
    # the f1 coefficients alpha^n/(n!)^{3/2} peak near n = 2150 at alpha
    # 1e5, past the 600-term horizon: exit 3, as any unreachable tolerance,
    # with no traceback
    done = _python("-m", "lfock.cli", "state", "f1", "--alpha", "1e5")
    assert done.returncode == 3
    assert done.stderr == ("lfock: truncation error: series tail not below "
                           "1e-18 within 600 terms; |alpha| too large or C(n) "
                           "grows too slowly\n")


def test_squeezed_series_overflow_warns_each_cell_without_numpy_warnings():
    # at lam 50 the Laguerre factors of the 300-term series pass 1e308 inside
    # the guarded disk, but the terms d_n do not (ln|d_299| = -595 at xi
    # 0.01): the series is formed in log space, so every cell is printed,
    # finite, with no warning
    done = _python("-m", "lfock.cli", "fig3a", "--truncation", "300",
                   "--lambda", "50", "--grid", "0.01:0.1:3")
    assert done.returncode == 0
    assert done.stderr == ""
    cells = [line.split(",")[1] for line in done.stdout.splitlines()[2:]]
    assert len(cells) == 3
    assert all(math.isfinite(float(q)) for q in cells)


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


def test_fig1_truncation_past_the_default_horizon_runs(capsys):
    # caps from 322 rows exited 1 naming the default horizon max_n=320; the
    # basis now covers the cap, and the extra rows leave the sums as they are
    assert main(["fig1", "--grid", "0:1:2"]) == 0
    auto = capsys.readouterr().out.splitlines()[1:]
    for n in ("400", "4001"):
        assert main(["fig1", "--truncation", n, "--grid", "0:1:2"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == auto


def test_fig1_truncation_short_of_the_tail_leaves_cells_empty(capsys):
    # a cap that cuts the m^2 P(m) tail printed the capped sums with no
    # warning (at one row, empty cells with no warning); each such cell is
    # empty now, warned about with the truncation it fell short at
    assert main(["fig1", "--truncation", "1", "--alpha", "1",
                 "--grid", "0:1:3"]) == 0
    out, err = capsys.readouterr()
    assert [row.split(",")[1] for row in out.splitlines()[2:]] == [""] * 3
    assert err.splitlines() == [
        f"lfock: warning: fig1 lambda={lam} alpha=1 skipped: m^2 P(m) tail "
        "not below 1e-12 at the truncation 1" for lam in ("0", "0.5", "1")]
    assert main(["fig1", "--grid", "0:5:41"]) == 0
    auto = [row.split(",") for row in capsys.readouterr().out.splitlines()[2:]]
    assert main(["fig1", "--truncation", "40", "--grid", "0:5:41"]) == 0
    out, err = capsys.readouterr()
    capped = [row.split(",") for row in out.splitlines()[2:]]
    empty = [(i, j) for i, row in enumerate(capped)
             for j, cell in enumerate(row) if auto[i][j] and not cell]
    assert 0 < len(empty) == len(err.splitlines())
    for (i, j), line in zip(empty, err.splitlines()):
        assert line.startswith(f"lfock: warning: fig1 lambda={float(auto[i][0]):g} ")
        assert line.endswith("tail not below 1e-12 at the truncation 40")
    kept = [(float(cell), float(ref)) for row, want in zip(capped, auto)
            for cell, ref in zip(row[1:], want[1:]) if cell]
    assert all(abs(got - ref) <= 1e-12 * max(1.0, abs(ref)) for got, ref in kept)


@pytest.mark.parametrize("argv, n, largest", [
    (["fig1", "--truncation", "4002", "--grid", "0:1:2"], 4002, 4001),
    (["fig3a", "--truncation", "900"], 900, 803),
    (["state", "lambda_ss", "--truncation", "804"], 804, 803),
    (["state", "lambda_cs", "--truncation", "1606"], 1606, 1605),
    (["state", "lambda_cs", "--alpha", "0", "--truncation", "1606"], 1606, 1605),
    (["state", "lambda_ss", "--xi", "0", "--truncation", "900"], 900, 803),
])
def test_horizon_errors_name_the_truncation_passed(argv, n, largest, capsys):
    # these named an internal index against max_n (1798 against 1604 for
    # fig3a --truncation 900, 599 against 512 for lambda_cs on its old
    # 512-row basis, which now shares lambda_ss's 1604 rows); the vacuum
    # states returned before the check and exited 0
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"truncation {n} beyond the basis horizon " \
           f"(largest accepted {largest})" in err


@pytest.mark.parametrize("argv", [
    ["state", "lambda_ss", "--truncation", "803"],
    ["state", "lambda_cs", "--truncation", "1605"],
])
def test_largest_accepted_truncation_runs(argv):
    assert main([*argv, "--out", os.devnull]) == 0


def test_readme_commands_parse():
    # every lfock line in the README's code blocks parses (nothing is run),
    # so the docs cannot keep an option the parser no longer has
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "README.md")
    commands, fenced = [], False
    with open(readme, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("```"):
                fenced = not fenced
            elif fenced and line.startswith("lfock "):
                commands.append(shlex.split(line)[1:])
    assert commands
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)
