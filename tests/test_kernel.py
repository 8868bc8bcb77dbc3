"""Gaussian kernel of the squeezed family against 50-digit mpmath.

psi = C_0 e^{xi lam^2/2} g(xi, xi lam) with g(xi, mu) = e^{xi a_dag^2/2 +
mu a_dag}|0>, and <m|_lam psi = C_0 e^{xi lam^2/2} g_m(xi, lam(1+xi))/sqrt(L_m).
The oracles share no code with the kernel: g_m from the explicit double sum,
norms and moments by summing |g_m|^2 to convergence, L_m by its recurrence.
"""

import json
import math
import os
import sys

import mpmath
import numpy as np
import pytest

from lfock import cli, fock, operators, states, stats, sweeps
from lfock.fock import LambdaBasis, TruncationError
from lfock.fock import _gaussian_amplitudes, _gaussian_log_norm, _gaussian_moments
from lfock.states import DomainError, lambda_squeezed
from lfock.stats import _frame_weights, number_moments, squeezed_moments

DPS = 50
# complex xi, negative lam, and lam = 10, 40, 50 just inside the guard
# 0.95 R(lam) (0.572, 0.169 and 0.120), where the peak |g_m| passes 1e308
CASES = [(1.0, 0.4j), (1.0, 0.5 - 0.3j), (-1.5, 0.6), (-2.0, 0.5 - 0.3j),
         (10.0, 0.55), (10.0, 0.3 + 0.4j), (40.0, 0.16), (40.0, -0.16j),
         (50.0, 0.11), (50.0, -0.11j)]


def _g_sum(xi, mu, m):
    # coefficient of |m> in e^{xi a_dag^2/2} e^{mu a_dag}|0>
    return mpmath.sqrt(mpmath.factorial(m)) * mpmath.fsum(
        (xi / 2) ** k * mu ** (m - 2 * k)
        / (mpmath.factorial(k) * mpmath.factorial(m - 2 * k))
        for k in range(m // 2 + 1))


def _g_terms(xi, mu, tol):
    # g_m by the recurrence at DPS digits, until past the peak |g_m|^2 < tol ||g||^2
    g, total = [mpmath.mpc(1), mu], 1 + abs(mu) ** 2
    while abs(g[-1]) ** 2 + abs(g[-2]) ** 2 > tol * total or len(g) < 64:
        m = len(g) - 1
        g.append((mu * g[m] + xi * mpmath.sqrt(m) * g[m - 1]) / mpmath.sqrt(m + 1))
        total += abs(g[-1]) ** 2
    return g


def _laguerre(lam, M):
    x = mpmath.mpf(lam) ** 2
    L = [mpmath.mpf(1), 1 + x]
    for n in range(1, M - 1):
        L.append(((2 * n + 1 + x) * L[n] - n * L[n - 1]) / (n + 1))
    return L[:M]


def _rel(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("lam, xi", CASES)
def test_amplitudes_match_explicit_sum(lam, xi):
    with mpmath.workdps(DPS):
        for mu in (xi * lam, lam * (1 + xi)):
            mant, expo = _gaussian_amplitudes(xi, mu, 121)
            for m in range(0, 121, 4):
                got = mpmath.mpc(complex(mant[m, 0])) * mpmath.mpf(2) ** int(expo[m, 0])
                want = _g_sum(mpmath.mpc(xi), mpmath.mpc(mu), m)
                assert _rel(got, want) <= 1e-12, (mu, m)


@pytest.mark.parametrize("lam, xi", CASES)
def test_log_norm_and_standard_moments(lam, xi):
    with mpmath.workdps(DPS):
        g = _g_terms(mpmath.mpc(xi), mpmath.mpc(xi * lam), mpmath.mpf(10) ** -45)
        w = [abs(gm) ** 2 for gm in g]
        norm2 = mpmath.fsum(w)
        mean = mpmath.fsum(m * p for m, p in enumerate(w)) / norm2
        var = mpmath.fsum(m * m * p for m, p in enumerate(w)) / norm2 - mean ** 2
        got = float(_gaussian_log_norm(complex(xi), complex(xi * lam)))
        assert abs(got - float(mpmath.log(norm2))) <= 1e-12 * max(1.0, got)
        a, ns, _, v = _gaussian_moments(complex(xi), complex(xi * lam))
        assert _rel(abs(a) ** 2 + ns, mean) <= 1e-12
        assert _rel(v, var) <= 1e-12
        want_q = float(var / mean - 1)
        st = lambda_squeezed(xi, LambdaBasis(lam, 1604))
        rep = squeezed_moments([st], "standard")[0]
        assert abs(rep.mandel_q - want_q) <= 1e-12 * max(1.0, abs(want_q))


@pytest.mark.parametrize("lam, xi", CASES)
def test_frame_weights_and_frame_q(lam, xi):
    basis = LambdaBasis(lam, 1604)
    st = lambda_squeezed(xi, basis)
    try:
        rep = number_moments(st)
    except (DomainError, TruncationError):
        return  # exit 3 is an allowed outcome; NaN with exit 0 is not
    assert math.isfinite(rep.mandel_q)
    with mpmath.workdps(DPS):
        xi_m, lam_m = mpmath.mpc(xi), mpmath.mpf(lam)
        g = _g_terms(xi_m, lam_m * (1 + xi_m), mpmath.mpf(10) ** -60)
        M = len(g)
        norm2 = mpmath.fsum(abs(gm) ** 2 for gm in _g_terms(
            xi_m, xi_m * lam_m, mpmath.mpf(10) ** -60))
        L = _laguerre(lam, M)
        P = [abs(gm) ** 2 / (Lm * norm2) for gm, Lm in zip(g, L)]
        mean = mpmath.fsum(m * p for m, p in enumerate(P))
        second = mpmath.fsum(m * m * p for m, p in enumerate(P))
        want_q = float((second - mean ** 2) / mean - 1)
        assert abs(rep.mandel_q - want_q) <= 1e-12 * max(1.0, abs(want_q))
        assert _rel(rep.prob_sum, mpmath.fsum(P)) <= 1e-12
        K = min(M, basis.max_n + 1)
        got, _, _ = _frame_weights(np.array([complex(xi)]),
                                   np.array([xi * lam]), [basis], K)
        for m in range(K):
            if P[m] > mpmath.mpf(10) ** -250:
                assert _rel(got[m, 0], P[m]) <= 1e-12, m


# (lam, xi, mu): complex and negative xi, negative lam, |xi| 0.9 at lam 0,
# coherent states (xi 0, mu alpha) up to |alpha| 20, nu = mu + lam = 0, and
# lam 10, 40 and 50 next to the guard; at lam 40 and 50 and real xi the
# bound certifies no horizon below the basis' own
HORIZON_CASES = [
    (1.0, 0.4j, 0.4j), (-2.0, 0.5 - 0.3j, -1.0 + 0.6j), (1.5, -0.6, -0.9),
    (0.0, 0.9, 0.0), (0.0, -0.9j, 0.0), (3.0, -0.5 + 0.2j, -1.5 + 0.6j),
    (0.0, 0.0, 20.0), (1.0, 0.0, -20.0), (-3.0, 0.0, 20.0),
    (2.0, 0.0, 3.0 - 1.0j), (-1.3, 0.0, 0.5j), (-0.5, 0.0, 0.5),
    (10.0, 0.55, 5.5), (10.0, 0.3 + 0.4j, 3.0 + 4.0j), (40.0, -0.16j, -6.4j),
    (50.0, -0.11j, -5.5j), (40.0, 0.16, 6.4), (50.0, 0.11, 5.5)]


@pytest.mark.parametrize("lam, xi, mu", HORIZON_CASES)
def test_horizon_bound_holds_against_mpmath(lam, xi, mu):
    # the tail bound at M* is at least the true sum_{m >= M*} (m^2+1) P(m),
    # relative to P(0) = 1/||g(xi, mu)||^2: sum (m^2+1) |g_m(xi, nu)|^2 / L_m
    basis = LambdaBasis(lam, 4000 if xi == 0 else 1604)
    gxi, gmu = np.array([xi], dtype=complex), np.array([mu], dtype=complex)
    nu = lam + gmu
    first, [[log_b]] = stats._tail_horizon(gxi, nu[None], basis.log_laguerre[None])
    P, _, ok = _frame_weights(gxi, gmu, [basis], None)
    assert P.shape[0] == min(first + 8, basis.max_n + 1) and ok.all()
    if lam >= 40.0 and xi.real:
        assert first == basis.max_n + 1 and log_b == math.inf
        return
    assert log_b < math.log(1e-16)
    with mpmath.workdps(DPS):
        xi_m, nu_m = mpmath.mpc(xi), mpmath.mpc(complex(nu[0]))
        x2 = abs(xi_m) ** 2  # ||g(xi, nu)||^2 in closed form
        norm2 = mpmath.exp(-mpmath.log(1 - x2) / 2 + (
            abs(nu_m) ** 2 + mpmath.re(mpmath.conj(xi_m) * nu_m ** 2)) / (1 - x2))
        # every |g_m|^2 from the last one kept on is below 1e-80
        g = _g_terms(xi_m, nu_m, mpmath.mpf(10) ** -80 / norm2)
        assert len(g) > first + 8
        L = _laguerre(lam, len(g))
        terms = [(m * m + 1) * abs(g[m]) ** 2 / L[m] for m in range(first, len(g))]
        tail = mpmath.fsum(terms)
        assert terms[-1] <= mpmath.mpf(10) ** -30 * tail
        assert tail <= mpmath.exp(log_b)


def test_quadratures_are_the_closed_form_for_complex_xi():
    for lam in (-2.0, 0.5, 3.0):
        basis = LambdaBasis(lam, 1604)
        for xi in (0.4j, 0.5 - 0.3j, -0.3):
            q = stats.quadrature_variances(lambda_squeezed(xi, basis))
            d = 2.0 * (1.0 - abs(xi) ** 2)
            assert q.var_x == pytest.approx(abs(1 + xi) ** 2 / d, rel=1e-14)
            assert q.var_p == pytest.approx(abs(1 - xi) ** 2 / d, rel=1e-14)


def test_kernel_matches_gram_route_and_truncation_keeps_it():
    basis = LambdaBasis(1.0, 1604)
    for xi in (0.3, 0.6, 0.4j):
        st = lambda_squeezed(xi, basis)
        # the stored series is normalized by the exact state's C_0
        assert st.expansion.norm() == pytest.approx(1.0, abs=1e-14)
        gram_rep = number_moments(st.expansion)
        assert number_moments(st).mandel_q == pytest.approx(
            gram_rep.mandel_q, rel=1e-12)
        kern = stats.quadrature_variances(st)
        gram = operators._lambda_quadratures(st.expansion)
        assert kern.var_x == pytest.approx(gram.var_x, rel=1e-12)
        assert kern.var_p == pytest.approx(gram.var_p, rel=1e-12)
        # --truncation N: the same series, on the Gram route throughout
        cut = lambda_squeezed(xi, basis, st.expansion.support // 2 + 1)
        assert cut.n_terms is not None
        assert cut.expansion.norm() == pytest.approx(1.0, abs=1e-14)


def test_auto_sweeps_and_exact_dumps_build_no_dense_matrix(monkeypatch):
    # the guard scan streams its even Gram block, the kernel serves the
    # states and norm_gram streams rows: neither gram nor expansion_matrix
    # runs, in any caller
    monkeypatch.setattr(states, "_GUARD_RADII", {})
    callers = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            callers.append((fn.__name__, sys._getframe(1).f_code.co_name))
            return fn(*args, **kwargs)
        return wrapped

    for original in (fock.gram, operators.expansion_matrix):
        wrapped = spy(original)
        for module in (fock, operators, states, stats):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(fock.LambdaExpansion, "to_standard",
                        spy(fock.LambdaExpansion.to_standard))
    sweeps.sweep_fig2([1.0, 3.0], (0.02, 0.9, 30))
    sweeps.sweep_fig3("lambda", [1.0, 3.0], (0.02, 0.9, 30))
    sweeps.sweep_fig3("standard", [1.0, 3.0], (0.02, 0.9, 30))
    sweeps.sweep_fig1([1.0, -2.0 + 1.0j], (0.0, 5.0, 20))
    # an explicit truncation measures the same exact states
    sweeps.sweep_fig2([1.0, 3.0], (0.02, 0.9, 30), 300)
    sweeps.sweep_fig3("lambda", [1.0, 3.0], (0.02, 0.9, 30), 300)
    sweeps.sweep_fig3("standard", [1.0, 3.0], (0.02, 0.9, 30), 300)
    for argv in (["lambda_cs", "--lambda=3", "--alpha=-2,1"],
                 ["lambda_ss", "--lambda=2", "--xi=-0.4,0.2"]):
        assert cli.main(["state", *argv, "--out", os.devnull]) == 0
    assert set(states._GUARD_RADII) == {1.0, 2.0, 3.0}  # the guard ran
    assert callers == []


def test_negative_xi_cells_at_lam_4_match_the_series_definition():
    # 60-digit mpmath sums of C_0 sum_n d_n |2n>_lam, expanded term by term
    # in the standard basis; the Gram route printed 0.14202038577621523 and
    # -0.1748549389712606 at xi = -0.6 and left xi = -0.7 empty, and fig2
    # failed there (norm check, exit 1)
    want = {"lambda": (0.050045153480147539, 0.14202018288512792),
            "standard": (0.15595776772247338, -0.17500000000000004)}
    for tag, values in want.items():
        got = sweeps.sweep_fig3(tag, [4.0], (-0.7, -0.6, 2)).series["Q[lambda=4]"]
        for g, w in zip(got, values):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), tag
    res = sweeps.sweep_fig2([4.0], (-0.7, -0.6, 2))
    assert res.series["var_x[lambda=4]"] == pytest.approx(
        [0.3 ** 2 / (2 * 0.51), 0.4 ** 2 / (2 * 0.64)], rel=1e-14)


def test_frame_tail_unsettled_on_a_tiny_basis_is_a_truncation_error():
    # five rows cannot hold the tail window of eight: exit 3, not a crash
    with pytest.raises(TruncationError):
        number_moments(lambda_squeezed(0.2, LambdaBasis(1.0, 4)))


def _squeezed_series_standard(lam, xi, d, dps=40):
    # the definition C_0 sum_n d_n |2n>_lam expanded term by term: the
    # sqrt(L_2n) of d_n cancels the ket's, leaving psi_m = C_0/sqrt(m!) *
    # sum_{2n >= m} (xi/2)^n (2n)!/(n! (2n-m)!) lam^(2n-m), each sum run past
    # its peak to 1e-45 of it. Components are summed until four in a row fall
    # below 1e-25 of the largest (the rest, zeros here, are far below the
    # test tolerance); C_0 > 0 normalizes them
    with mpmath.workdps(dps):
        lam, xi = mpmath.mpf(lam), mpmath.mpc(xi)
        fact, tiny = mpmath.factorial, mpmath.mpf(10) ** -45
        psi, mags, x = [], [], xi * lam ** 2
        while len(psi) < 8 or max(mags[-4:]) > mpmath.mpf(10) ** -25 * max(mags):
            m = len(psi)
            n = (m + 1) // 2
            t = (xi / 2) ** n * fact(2 * n) / (fact(n) * fact(2 * n - m)) \
                * lam ** (2 * n - m)
            total, a, prev = t, abs(t), abs(t) + 1
            top = a
            while a >= prev or a > tiny * top:
                # t_{n+1}/t_n = xi lam^2 (2n+1)/((2n-m+1)(2n-m+2))
                t *= x * (2 * n + 1) / ((2 * n - m + 1) * (2 * n - m + 2))
                n += 1
                total, prev, a = total + t, a, abs(t)
                top = max(top, a)
            psi.append(total / mpmath.sqrt(fact(m)))
            mags.append(abs(psi[-1]))
        norm = mpmath.sqrt(mpmath.fsum(abs(z) ** 2 for z in psi))
        out = np.zeros(d, dtype=complex)
        out[: min(d, len(psi))] = [complex(z / norm) for z in psi[:d]]
        return out


def _coherent_standard(lam, alpha, d, dps=60):
    # C_0 sum_n alpha^n sqrt(L_n/n!) |n>_lam term by term: the sum over n >= m
    # of each component is C_0 alpha^m e^{alpha lam} / sqrt(m!)
    with mpmath.workdps(dps):
        lam, alpha = mpmath.mpf(lam), mpmath.mpc(alpha)
        c0 = mpmath.exp(-lam * alpha.real - abs(alpha) ** 2 / 2)
        return np.array([complex(c0 * mpmath.exp(alpha * lam) * alpha ** m
                                 / mpmath.sqrt(mpmath.factorial(m)))
                         for m in range(d)])


@pytest.mark.parametrize("kind, lam, z", [
    ("lambda_ss", 2.0, -0.8), ("lambda_ss", 4.0, -0.6),
    ("lambda_ss", 2.9, -0.4 + 0.2j), ("lambda_cs", 3.0, -2.0),
    ("lambda_cs", 3.0, -2.0 + 1.0j)])
def test_state_dump_standard_columns_match_mpmath(kind, lam, z, capsys):
    # the frame series summed through E^T c cancelled here: off by 2.7e-8,
    # 1.35e-8, 2.2e-11, 4.8e-11 and 8.0e-11
    flag = "--xi" if kind == "lambda_ss" else "--alpha"
    assert cli.main(["state", kind, f"--lambda={lam}",
                     f"{flag}={z.real},{z.imag}", "--format=json"]) == 0
    got = np.array([complex(*pair) for pair in
                    json.loads(capsys.readouterr().out)["standard"]])
    oracle = _squeezed_series_standard if kind == "lambda_ss" else _coherent_standard
    assert np.max(np.abs(got - oracle(lam, z, got.shape[0]))) <= 1e-14


@pytest.mark.parametrize("command", ["fig2", "fig3b"])
def test_cancelling_truncated_series_is_refused_not_misprinted(command, capsys):
    # kappa = |u|^T |G| |u| / |u^H G u| is 1.07e13 at (lam 4, xi -0.6): the
    # Gram route printed Q = -0.17485493897125992 (fig3b) or exited 1 on its
    # norm check (fig2). The series oracle (the truncation at 300 terms is the
    # whole series here): the 60-digit values of the test above, and the
    # closed-form variances
    want = {"fig3b": [[0.15595776772247338], [-0.17500000000000004]],
            "fig2": [[0.3 ** 2 / (2 * 0.51), 1.7 ** 2 / (2 * 0.51)],
                     [0.4 ** 2 / (2 * 0.64), 1.6 ** 2 / (2 * 0.64)]]}[command]
    code = cli.main([command, "--truncation", "300", "--lambda=4",
                     "--grid=-0.7:-0.6:2"])
    assert code in (0, 3)
    out, err = capsys.readouterr()
    if code == 3:
        return
    rows = [line.split(",")[1:] for line in out.splitlines()[2:]]
    for row, values, xi in zip(rows, want, ("-0.7", "-0.6")):
        for cell, value in zip(row, values):
            if cell:
                assert abs(float(cell) - value) <= 1e-12 * max(1.0, abs(value))
            elif xi == "-0.6":  # refused for the cancellation, not the guard
                assert f"xi={xi} skipped: the truncated series cancels" in err


def test_truncated_fig2_cells_match_the_series(capsys):
    # the Gram route (G c)^H (X c) printed var_p 0.7499999999983555 at xi -0.2
    # (exact 0.75), and the truncated series cancelled in its norm below
    # -0.2. The cells are the exact state's closed forms for -0.7 <= xi <=
    # 0.7; at xi +-0.75 the exact series settles only at 336 terms, so those
    # cells are empty and warned, and |xi| >= 0.8 lies outside the guard
    assert cli.main(["fig2", "--truncation", "300", "--lambda=4",
                     "--grid=-0.9:0.9:37"]) == 0
    out, err = capsys.readouterr()
    printed = []
    for line in out.splitlines()[2:]:
        xi, var_x, var_p = line.split(",")
        if not var_x:
            continue
        xi = float(xi)
        want = ((1 + xi) ** 2 / (2 - 2 * xi * xi), (1 - xi) ** 2 / (2 - 2 * xi * xi))
        assert abs(float(var_x) - want[0]) <= 1e-13
        assert abs(float(var_p) - want[1]) <= 1e-13
        printed.append(round(xi, 2))
    assert printed == [round(x, 2) for x in np.arange(-0.7, 0.71, 0.05)]
    assert err.splitlines() == [
        f"lfock: warning: fig2 lambda=4 xi={xi} skipped: normalization series "
        "not settled at the truncation 300" for xi in ("-0.75", "0.75")] + [
        "lfock: warning: fig2 lambda=4: 6 xi point(s) outside the guarded "
        "convergence disk, emitted as empty cells"]


def test_cancelling_series_is_a_domain_error_without_guard_radius():
    basis = LambdaBasis(4.0, 1604)
    with pytest.raises(DomainError, match="condition number") as info:
        lambda_squeezed(-0.6, basis, 300)
    assert info.value.radius is None
    # positive real xi: every term of u^H G u is positive, kappa = 1
    assert lambda_squeezed(0.3, basis, 300).n_terms == 300


def test_library_returns_the_cli_numbers_for_a_truncated_series(capsys):
    # a figure at --truncation N prints the exact state's numbers, bit for
    # bit, where its series has settled at N terms; the exact series at
    # (lam 4, xi -0.6) settles at 143 terms, so at the truncation 40 the cell
    # is empty, warned with the truncation, where the figures printed the
    # 40-term series' statistics
    st = lambda_squeezed(-0.6, LambdaBasis(4.0, states._SQUEEZED_MAX_N))
    q = stats.quadrature_variances(st)
    want = {"fig2": {"var_x[lambda=4]": [q.var_x] * 2,
                     "var_p[lambda=4]": [q.var_p] * 2},
            "fig3a": {"Q[lambda=4]": [squeezed_moments([st, st])[0].mandel_q] * 2},
            "fig3b": {"Q[lambda=4]": [squeezed_moments(
                [st], "standard")[0].mandel_q] * 2}}
    for command, series in want.items():
        for n in ("300", "40"):
            assert cli.main([command, "--truncation", n, "--lambda=4",
                             "--grid=-0.6:-0.6:2", "--format=json"]) == 0
            out, err = capsys.readouterr()
            got = json.loads(out)["series"]
            if n == "300":
                assert got == series and err == ""
            else:
                assert got == {name: [None, None] for name in series}
                assert err.count("xi=-0.6 skipped: normalization series not "
                                 "settled at the truncation 40") == 2
