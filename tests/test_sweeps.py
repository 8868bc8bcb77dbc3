"""Figure sweeps: fig1 table sizes, its accepted range, and why cells are empty."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from lfock import stats, sweeps
from lfock.cli import main
from lfock.fock import DomainError, LambdaBasis
from lfock.specfun import _laguerre_log_floor, _laguerre_table
from lfock.states import lambda_coherent, lambda_squeezed
from lfock.stats import _TAIL_UNSETTLED, number_moments, squeezed_moments


def _basis_sizes(monkeypatch) -> list:
    sizes = []

    def spy(lam, max_n):
        sizes.append(max_n)
        return LambdaBasis(lam, max_n)

    monkeypatch.setattr(sweeps, "LambdaBasis", spy)
    return sizes


def _rule(lams, alphas) -> int:
    # the row rule int(x^2 + 12 x) + 64 at x = |lam+alpha|: a block's cap
    return max(int(x * x + 12.0 * x) + 64 for x in
               (abs(lam + a) for lam in lams for a in alphas))


def test_fig1_tables_stop_within_twelve_rows_of_the_certified_horizon(monkeypatch):
    # each default block builds its tables to the horizon that the
    # largest-term floor on ln L_M certifies, plus 8 rows: at least the
    # tables' own M* + 8 that the pass reads, at most 4 rows more, and the
    # floor's array is no larger than the rule-sized table it replaces
    blocks, floors = [], []
    frame_moments, floor = sweeps._frame_moments, sweeps._laguerre_log_floor

    def moments_spy(xi, mu, bases, cutoff):
        blocks.append((mu, bases))
        return frame_moments(xi, mu, bases, cutoff)

    def floor_spy(lams, n_max):
        floors.append(floor(lams, n_max))
        return floors[-1]

    monkeypatch.setattr(sweeps, "_frame_moments", moments_spy)
    monkeypatch.setattr(sweeps, "_laguerre_log_floor", floor_spy)
    sweeps.sweep_fig1()
    assert len(blocks) == len(floors) == 8
    rows = 0
    for (mu, bases), low in zip(blocks, floors):
        lams = [basis.lam for basis in bases]
        rule = _rule(lams, mu)
        tables = np.array([LambdaBasis(lam, rule).log_laguerre for lam in lams])
        m_star, _ = stats._tail_horizon(np.zeros_like(mu), np.add.outer(lams, mu),
                                        tables)
        [max_n] = {basis.max_n for basis in bases}
        assert m_star + 8 <= max_n <= m_star + 8 + 4 < rule
        assert low.shape == tables.shape
        assert np.all(low <= tables)
        rows += max_n * len(bases)
    assert rows == 15625  # 29275 at the rule


def test_laguerre_log_floor_is_below_the_table():
    # the largest term of L_M(-x) = sum_k C(M,k) x^k/k! is a lower bound:
    # over M <= 4000 and x up to 57.04^2, the fig1 range, it never exceeds
    # the table's ln L_M, which keeps the tail bound built on it rigorous
    lams = np.concatenate([[0.0, 1e-8, 1e-3, -1.3, 57.04],
                           np.linspace(0.05, 57.0, 20)])
    low = _laguerre_log_floor(lams, 4000)
    assert low.shape == (lams.size, 4001)
    for lam, row in zip(lams, low):
        table, _ = _laguerre_table(lam, 4000)
        assert np.all(row <= table), lam
    assert np.all(low[0] == 0.0)


def test_fig1_bases_cover_a_larger_truncation(monkeypatch):
    # an explicit truncation N reads N rows, so the tables hold exactly those
    sizes = _basis_sizes(monkeypatch)
    sweeps.sweep_fig1([1.0], (0.0, 0.0, 2), truncation=400)
    assert sizes == [399, 399]
    sizes.clear()
    sweeps.sweep_fig1([1.0], (0.0, 0.0, 2), truncation=40)  # below the rule's 77
    assert sizes == [39, 39]


def test_fig1_past_its_cap_is_a_usage_error(capsys):
    # the rule asks 4517 rows at |lam+alpha| 61; the 4000-row cap left all
    # three cells empty with exit 0, each warned to build a larger basis
    assert main(["fig1", "--alpha", "60", "--grid", "0:1:3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("lfock: error: |lambda+alpha| = 61 needs max_n 4517, beyond "
                   "4000 (largest accepted |lambda+alpha| 57.0317)\n")
    assert main(["fig1", "--alpha=-57.0318", "--grid", "0:0:2"]) == 1
    assert "largest accepted |lambda+alpha| 57.0317" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--alpha", "57.0317", "--grid", "0:0:2"],
    ["--alpha", "57", "--grid", "0:0.02:2"],
    ["--alpha=-57.0317", "--alpha", "1", "--grid", "0:0:2"],
])
def test_fig1_at_its_largest_accepted_reach_has_no_empty_cell(argv, capsys):
    assert main(["fig1", *argv]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = out.splitlines()[2:]
    assert len(rows) == 2 and all(cell for row in rows for cell in row.split(","))


def _cells(res) -> list:
    # every cell as its exact bits (None stays None), one list per lam
    return [[None if col[i] is None else float(col[i]).hex()
             for col in res.series.values()]
            for i in range(len(res.axis_values))]


@pytest.mark.parametrize("alphas, grid, truncation", [
    (None, (0.0, 5.0, 61), None),           # three blocks, horizons 64 to 256
    ([1.0, -2.0 + 1.0j], (-3.0, 2.0, 53), None),
    ([-30.0, 1.0], (29.9, 30.0, 30), None),  # alpha -30: weights below e^-600
    (None, (0.0, 5.0, 31), 40),
    (None, (0.0, 5.0, 31), 400),
    ([0.0, 1.0], (-2.0, 2.0, 41), None),    # vacuum at lam = 0
])
def test_fig1_column_cells_are_their_one_point_cells(alphas, grid, truncation):
    # the weights of a block of lam are evaluated together; each cell must
    # be, bit for bit, the cell of a grid holding that lam alone
    res = sweeps.sweep_fig1(alphas, grid, truncation)
    for lam, row in zip(res.axis_values, _cells(res)):
        alone = sweeps.sweep_fig1(alphas, (lam, lam, 2), truncation)
        assert alone.axis_values == [lam, lam]
        assert _cells(alone)[0] == row, lam


def test_fig1_cells_are_the_library_moments_of_their_states(monkeypatch):
    # fig1, number_moments and squeezed_moments share one frame-weight
    # route: each cell is, bit for bit, the Q of its state at the lam fig1
    # built, measured alone or in the column of every alpha. fig1's tables
    # stop 8 to 12 rows past the certified horizon, too short for the
    # state's coefficient series, so the states take the rule's rows; the
    # pass finds the same horizon in either table, whose prefixes agree
    bases = []

    def spy(lam, max_n):
        bases.append(LambdaBasis(lam, max_n))
        return bases[-1]

    monkeypatch.setattr(sweeps, "LambdaBasis", spy)
    alphas = [1.0, -2.0 + 1.0j, 0.5j]
    res = sweeps.sweep_fig1(alphas, (0.0, 5.0, 41))
    assert [b.lam for b in bases] == res.axis_values  # 41 x 3 = 123 cells
    for i, short in enumerate(bases):
        basis = LambdaBasis(short.lam, _rule([short.lam], alphas))
        assert np.array_equal(basis.log_laguerre[: short.max_n + 1], short.log_laguerre)
        column = [lambda_coherent(a, basis) for a in alphas]
        for a, st, rep in zip(alphas, column, squeezed_moments(column)):
            got = res.series[f"Q[alpha={sweeps._fmt_num(a)}]"][i]
            assert got == number_moments(st).mandel_q == rep.mandel_q, (i, a)


def test_default_figures_evaluate_each_column_and_block_once(monkeypatch, capsys):
    # each horizon is known before the pass: the default fig3a runs the g_m
    # recurrence once per lam column, and the default fig1 evaluates each
    # block of 25 lam once, as one array at one horizon
    horizons, blocks = [], []
    amplitudes, weights = stats._gaussian_amplitudes, stats._frame_weights

    def amplitudes_spy(xi, mu, M):
        horizons.append(M)
        return amplitudes(xi, mu, M)

    def weights_spy(xi, mu, bases, cutoff):
        out = weights(xi, mu, bases, cutoff)
        blocks.append((len(bases), out[0].shape[1]))
        return out

    monkeypatch.setattr(stats, "_gaussian_amplitudes", amplitudes_spy)
    monkeypatch.setattr(stats, "_frame_weights", weights_spy)
    sweeps.sweep_fig3("lambda")
    assert len(horizons) == len(blocks) == 3
    assert all(M < 1605 for M in horizons)  # below the basis horizon
    blocks.clear()
    sweeps.sweep_fig1()
    assert blocks == [(25, 100)] * 8


@pytest.mark.parametrize("lam", [0.4, 1.3, 2.7])
@pytest.mark.parametrize("basis", ["lambda", "standard"])
def test_fig3_columns_are_even_in_lambda(lam, basis, capsys):
    # |n>_{-lam} = (-1)^n Pi |n>_lam: a squeezed state's statistics, its guard
    # and its frame-weight horizon do not change with the sign of lam
    plus, minus = (sweeps.sweep_fig3(basis, [x], (-0.9, 0.9, 41))
                   for x in (lam, -lam))
    assert list(plus.series.values()) == list(minus.series.values())
    assert capsys.readouterr().err.count("outside the guarded") == 2


def test_fig1_is_even_under_a_joint_sign_flip():
    # Q(alpha, lam) = Q(-alpha, -lam); the mirrored grid's lam differ by
    # rounding, so the cells agree within 1e-13 relative, not bit for bit
    alphas = [1.0, 2.0, -1.5 + 0.5j, 0.5 - 1.0j]
    plus = sweeps.sweep_fig1(alphas, (0.0, 5.0, 101))
    minus = sweeps.sweep_fig1([-a for a in alphas], (-5.0, 0.0, 101))
    for a, b in zip(plus.series.values(), minus.series.values()):
        for q, mirrored in zip(a, b[::-1]):
            assert q is not None and abs(q - mirrored) <= 1e-13 * abs(q)


@pytest.mark.parametrize("command", ["fig2", "fig3a", "fig3b"])
def test_non_guard_empty_cells_are_warned_with_their_reason(command, capsys):
    # inside the guarded disk (0.95 R(4) = 0.845) the tail bound of the
    # exact series at xi -0.7 falls below 1e-14 only at 400 terms, so at the
    # truncation 300 its cell is empty and warned with that truncation, not
    # counted as "outside the guarded convergence disk"; at -0.65 it falls
    # there at 293 terms and the cell prints the auto run's
    argv = [command, "--lambda=4", "--grid=-0.7:-0.65:2"]
    assert main(argv) == 0
    auto = capsys.readouterr().out.splitlines()[2:]
    assert main([*argv, "--truncation", "300"]) == 0
    out, err = capsys.readouterr()
    rows = out.splitlines()[2:]
    assert err.splitlines() == [
        f"lfock: warning: {command[:4]} lambda=4 xi=-0.7 skipped: "
        "normalization series not settled at the truncation 300"]
    assert rows[0].rstrip(",") == "-0.7" and not auto[0].endswith(",")
    assert rows[1] == auto[1] and not rows[1].endswith(",")


def test_non_guard_squeezed_errors_carry_no_radius():
    basis = LambdaBasis(4.0, 1604)
    with pytest.raises(DomainError, match="cancels in its norm") as info:
        lambda_squeezed(-0.75, basis, 300)
    assert info.value.radius is None
    with pytest.raises(DomainError, match="guarded disk") as info:
        lambda_squeezed(0.9, basis)
    assert 0.9 >= 0.95 * info.value.radius > 0.0


def test_unsettled_fig3_cells_are_warned_not_counted(monkeypatch, capsys):
    # squeezed_moments gives None where the frame tail is unsettled at the
    # basis horizon; those cells were counted as guard refusals
    real = sweeps.squeezed_moments

    def unsettled_first(column, basis_tag):
        return [None] + real(column[1:], basis_tag)

    monkeypatch.setattr(sweeps, "squeezed_moments", unsettled_first)
    res = sweeps.sweep_fig3("lambda", [2.0], (0.3, 0.9, 3))
    assert res.series["Q[lambda=2]"][0] is None
    assert res.series["Q[lambda=2]"][1] is not None
    assert capsys.readouterr().err.splitlines() == [
        f"lfock: warning: fig3 lambda=2 xi=0.3 skipped: {_TAIL_UNSETTLED}",
        "lfock: warning: fig3 lambda=2: 1 xi point(s) outside the guarded "
        "convergence disk, emitted as empty cells"]


def _run(argv: list) -> tuple[list, str]:
    """Data rows and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0, argv
    return [row.split(",") for row in out.getvalue().splitlines()[2:]], \
        err.getvalue()


@given(lam=strategies.floats(-3.0, 3.0), n=strategies.integers(1, 803),
       lo=strategies.floats(-0.89, 0.89), hi=strategies.floats(-0.89, 0.89))
@settings(max_examples=15, deadline=None)
def test_truncated_squeezed_cells_are_the_auto_cells_or_warned(lam, n, lo, hi):
    # --truncation N measures the exact state, as the auto run does: a cell
    # either prints the auto run's bytes or is empty, warned with N
    grid = f"--grid={min(lo, hi)!r}:{max(lo, hi)!r}:3"
    for command in ("fig2", "fig3a", "fig3b"):
        argv = [command, f"--lambda={lam!r}", grid]
        auto, _ = _run(argv)
        cut, err = _run([*argv, f"--truncation={n}"])
        assert len(cut) == len(auto) == 3
        for row_auto, row_cut in zip(auto, cut):
            assert row_cut[0] == row_auto[0]
            for cell_auto, cell_cut in zip(row_auto[1:], row_cut[1:]):
                if cell_cut:
                    assert cell_cut == cell_auto, (argv, row_cut[0])
                elif cell_auto:
                    assert (f"xi={float(row_cut[0]):g} skipped: normalization "
                            f"series not settled at the truncation {n}\n") in err
