"""Photon statistics: deformed-projection distribution, Mandel Q, quadratures."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson

from lfock import fock, stats
from lfock.fock import LambdaBasis, LambdaExpansion, TruncationError, lambda_ket
from lfock.specfun import laguerre0_log
from lfock.states import (_SQUEEZED_MAX_N, DomainError, lambda_coherent,
                          lambda_squeezed, radius_min, squeezed_vacuum)
from lfock.stats import (QuadratureReport, StatisticsReport, _frame_weights,
                         number_moments, p_lambda, quadrature_variances,
                         squeezed_moments)
from lfock.sweeps import sweep_fig1


def _p_collapsed(m, alpha, lam, basis):
    # binomial collapse of the double sum: e^{-|a|^2} |lam+a|^{2m} / (m! L_m)
    alpha = complex(alpha)
    return (math.exp(-abs(alpha) ** 2) * abs(lam + alpha) ** (2 * m)
            / (math.factorial(m) * math.exp(laguerre0_log(m, lam))))


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [1.0, 2.0, -1.0, 1.0 + 1.0j])
def test_projection_weights_match_collapsed_form(lam, alpha):
    basis = LambdaBasis(lam, 32)
    for m in range(26):
        want = _p_collapsed(m, alpha, lam, basis)
        got = p_lambda(m, alpha, basis)
        if want == 0.0:
            # lam + alpha = 0: the alternating sum cancels exactly; the
            # log-space route leaves rounding residue far below any weight
            assert abs(got) < 1e-20, f"m={m}"
        else:
            assert got == pytest.approx(want, rel=1e-10), f"m={m}"


def test_projection_weights_poisson_limit():
    basis = LambdaBasis(1e-8, 24)
    for alpha in (0.7, 2.0):
        for m in range(21):
            want = poisson.pmf(m, alpha ** 2)
            assert abs(p_lambda(m, alpha, basis) - want) < 1e-6


def test_projection_weights_match_vector_route():
    lam, alpha = 1.0, 0.8 + 0.3j
    basis = LambdaBasis(lam, 128)
    state = lambda_coherent(alpha, basis)
    psi = state.to_standard()
    for m in range(0, 24, 3):
        ket = lambda_ket(m, basis, psi.shape[0])
        assert p_lambda(m, alpha, basis) == pytest.approx(
            abs(np.dot(ket, psi)) ** 2, rel=1e-9, abs=1e-30)


def test_projection_weights_past_the_horizon_name_the_index():
    # an array reaching past max_n was refused as "cutoff 300 beyond basis
    # horizon" while the scalar m = 300 named the index
    basis = LambdaBasis(1.0, 256)
    for m in (300, np.array([0, 300]), np.array([300, 2])):
        with pytest.raises(ValueError, match="^index 300 beyond basis horizon"):
            p_lambda(m, 1.0, basis)
    with pytest.raises(ValueError, match="^index must be nonnegative"):
        p_lambda(np.array([-1, 2]), 1.0, basis)
    edge = p_lambda(np.array([0, 256]), 1.0, basis)
    assert edge.shape == (2,) and edge[1] == p_lambda(256, 1.0, basis)


def test_flat_coherent_state_is_poissonian():
    basis = LambdaBasis(0.0, 256)
    state = lambda_coherent(1.3, basis)
    report = number_moments(state)
    assert report.basis_tag == "lambda"
    assert abs(report.mandel_q) < 1e-8
    assert report.prob_sum == pytest.approx(1.0, abs=1e-10)
    # standard-basis route on the same vector
    dense = number_moments(state.to_standard())
    assert dense.basis_tag == "standard"
    assert abs(dense.mandel_q) < 1e-8


def test_series_moments_stream_gram_rows_without_a_matrix(monkeypatch):
    # number_moments of a truncated series takes G c from the streamed
    # triangle rows over the whole basis horizon: no Gram matrix is built,
    # and its weights are |G c|^2 of the dense matrix, for a series with
    # both parities and an even-only one (whose odd rows still carry the
    # upper dot products). Weights that cancel to ~1e-35 of the largest
    # differ relatively by rounding, so the check is also to 1e-13 of it.
    basis = LambdaBasis(1.0, 400)
    dense = fock.gram(basis, basis.max_n + 1)
    weights, builds = [], []
    reports = stats._reports
    monkeypatch.setattr(fock, "gram", lambda *args: builds.append(args))
    monkeypatch.setattr(stats, "_reports", lambda P, *args: (
        weights.append(P[:, 0].copy()), reports(P, *args))[1])
    for state in (lambda_coherent(1.2 - 0.4j, basis, 60),
                  lambda_squeezed(0.3, basis, 40)):
        c = state.expansion.coeffs
        want = np.abs(dense[:, :c.shape[0]] @ c) ** 2
        tracemalloc.start()
        number_moments(state)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert builds == [] and peak < dense.nbytes // 8
        np.testing.assert_allclose(weights.pop(), want, rtol=1e-13,
                                   atol=1e-13 * want.max())
    # |0>_lam = |0> at lam 10 spreads its frame weights over some 200 rows
    basis = LambdaBasis(10.0, 600)
    report = number_moments(LambdaExpansion(basis, np.ones(1, dtype=complex)))
    kernel = number_moments(lambda_coherent(0.0, basis))
    assert report.mandel_q == pytest.approx(kernel.mandel_q, rel=1e-12)
    assert report.mean == pytest.approx(kernel.mean, rel=1e-12)
    # the same state on 41 rows has not settled at that horizon
    with pytest.raises(TruncationError, match="^m\\^2 P\\(m\\) tail not below"):
        number_moments(LambdaExpansion(LambdaBasis(10.0, 40),
                                       np.ones(1, dtype=complex)))


def test_vacuum_report_leaves_q_undefined():
    report = number_moments(np.array([1.0 + 0.0j]))
    assert report.mean == 0.0
    assert not report.q_defined
    assert math.isnan(report.mandel_q)
    assert report.prob_sum == 1.0


def test_lambda_moments_match_projection_series():
    lam, alpha = 0.625, 1.0
    basis = LambdaBasis(lam, 256)
    report = number_moments(lambda_coherent(alpha, basis))
    M = 80
    P = np.array([p_lambda(m, alpha, basis) for m in range(M)])
    m = np.arange(M, dtype=float)
    assert report.prob_sum == pytest.approx(float(P.sum()), abs=1e-9)
    assert report.mean == pytest.approx(float((m * P).sum()), abs=1e-9)
    assert report.second_moment == pytest.approx(float((m * m * P).sum()),
                                                 abs=1e-8)


def test_raw_moment_convention_is_not_renormalized():
    # the deformed projectors do not resolve the identity, so prob_sum > 1
    # and Q below -1 are legitimate outputs; pin one such point
    basis = LambdaBasis(0.625, 256)
    report = number_moments(lambda_coherent(1.0, basis))
    assert report.prob_sum > 1.0
    assert report.mandel_q < -1.0
    assert report.second_moment < report.mean ** 2  # only possible unnormalized


def test_second_moment_bound_lambda_route():
    # Cauchy-Schwarz on the raw weights: <m^2> >= <m>^2 / prob_sum
    cases = [(0.5, 1.0), (1.0, 0.8 + 0.3j), (2.0, 2.0j), (0.625, 1.0)]
    for lam, alpha in cases:
        basis = LambdaBasis(lam, 256)
        r = number_moments(lambda_coherent(alpha, basis))
        assert r.second_moment >= r.mean ** 2 / r.prob_sum - 1e-12


def test_second_moment_bound_standard_route():
    rng = np.random.default_rng(3)
    for _ in range(6):
        v = rng.normal(size=24) + 1j * rng.normal(size=24)
        v /= np.linalg.norm(v)
        r = number_moments(v)
        assert r.second_moment >= r.mean ** 2 - 1e-12


def test_vacuum_quadratures():
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    q = quadrature_variances(v)
    assert q.var_x == pytest.approx(0.5, abs=1e-10)
    assert q.var_p == pytest.approx(0.5, abs=1e-10)
    assert q.product == pytest.approx(0.25, abs=1e-10)


def test_coherent_quadratures_are_vacuum_like():
    for lam, alpha in [(0.0, 1.1), (0.5, 1.0 + 0.5j), (2.0, 2.0j)]:
        basis = LambdaBasis(lam, 256)
        q = quadrature_variances(lambda_coherent(alpha, basis))
        assert q.var_x == pytest.approx(0.5, abs=1e-8)
        assert q.var_p == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("xi", [0.2, 0.5, -0.3])
def test_squeezed_vacuum_quadratures_closed_form(xi):
    q = quadrature_variances(squeezed_vacuum(xi))
    denom = 2.0 * (1.0 - abs(xi) ** 2)
    assert q.var_x == pytest.approx(abs(1 + xi) ** 2 / denom, rel=1e-8)
    assert q.var_p == pytest.approx(abs(1 - xi) ** 2 / denom, rel=1e-8)
    assert q.product == pytest.approx(0.25, abs=1e-8)


def test_squeezed_vacuum_complex_xi_exceeds_minimum_uncertainty():
    xi = 0.4j
    q = quadrature_variances(squeezed_vacuum(xi))
    denom = 2.0 * (1.0 - abs(xi) ** 2)
    assert q.var_x == pytest.approx(abs(1 + xi) ** 2 / denom, rel=1e-8)
    assert q.product > 0.25 + 1e-3


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_quadrature_routes_agree(lam):
    basis = LambdaBasis(lam, 512)
    for state in (lambda_coherent(1.0 + 0.5j, basis),
                  lambda_squeezed(0.25, basis)):
        ql = quadrature_variances(state)
        qd = quadrature_variances(state.to_standard(state.truncation + 30))
        assert ql.var_x == pytest.approx(qd.var_x, rel=1e-8)
        assert ql.var_p == pytest.approx(qd.var_p, rel=1e-8)


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_momentum_squeezing_holds_over_most_of_the_disk(lam):
    basis = LambdaBasis(lam, 1604)
    evaluated, squeezed_count = 0, 0
    for xi in np.linspace(0.05, 0.9, 18):
        try:
            state = lambda_squeezed(float(xi), basis)
        except DomainError:
            continue  # guarded neighborhood of the series radius
        q = quadrature_variances(state)
        evaluated += 1
        squeezed_count += q.var_p < 0.5
    assert evaluated >= 12
    assert squeezed_count > evaluated / 2


def test_opposite_q_signs_across_bases():
    basis = LambdaBasis(1.0, 1604)
    state = lambda_squeezed(0.3, basis)
    in_frame = number_moments(state)
    dense = number_moments(state.to_standard(state.truncation + 40))
    assert in_frame.basis_tag == "lambda" and in_frame.mandel_q < 0.0
    assert dense.basis_tag == "standard" and dense.mandel_q > 0.0


def test_sub_poissonian_window_exists_for_unit_alpha():
    # scanning the deformation at fixed alpha=1 crosses Q=0 downward
    qs = []
    for lam in np.linspace(0.0, 5.0, 26):
        basis = LambdaBasis(float(lam), 384)
        qs.append(number_moments(lambda_coherent(1.0, basis)).mandel_q)
    qs = np.array(qs)
    assert qs.min() < -0.5
    assert qs.max() > -1e-8


def test_norm_guard_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        quadrature_variances(np.array([0.5, 0.5], dtype=complex))
    basis = LambdaBasis(0.7, 32)
    bad = LambdaExpansion(basis, np.array([0.5, 0.5], dtype=complex))
    with pytest.raises(ValueError):
        quadrature_variances(bad)


def test_moment_routes_reject_unknown_payload():
    with pytest.raises(TypeError):
        number_moments("not a state")
    with pytest.raises(TypeError):
        quadrature_variances([0.1, 0.2])


def _mandel_q_mpmath(lam, alpha, dps=30):
    # Q from the closed-form weights e^{-|a|^2} |lam+a|^{2m} / (m! L_m), with
    # L_m(-lam^2) from the three-term recurrence, summed at 30 digits until
    # the weights fall past their peak below 1e-40
    with mpmath.workdps(dps):
        lam, alpha = mpmath.mpf(lam), mpmath.mpc(alpha)
        x, r2 = lam * lam, abs(lam + alpha) ** 2
        lag_prev, lag = mpmath.mpf(1), mpmath.mpf(1)
        P = mpmath.exp(-abs(alpha) ** 2)
        sums = [mpmath.mpf(0)] * 3
        m = 0
        while m <= r2 or (m * m + 1) * P > mpmath.mpf(10) ** -40:
            sums = [s + m ** j * P for j, s in enumerate(sums)]
            lag_prev, lag = \
                lag, ((2 * m + 1 + x) * lag - m * lag_prev) / (m + 1)
            m += 1
            P = P * r2 * lag_prev / (m * lag)
        _, mean, second = sums
        return float((second - mean * mean) / mean - 1)


@pytest.mark.parametrize("lam, alpha",
                         [(4.9, -2.0), (20.0, -1.0), (20.0, -2.0),
                          (40.0, 1.0), (40.0, 2.0)])
def test_fig1_cells_match_mpmath_closed_form(lam, alpha):
    # alpha < 0 with large C_0 = exp(-lam alpha - alpha^2/2): summing the
    # alternating expansion coefficients loses up to all digits here; at
    # lam = 40 the weights' tail runs past a fixed 320-row horizon
    res = sweep_fig1([alpha], (lam, lam, 2))
    got = res.series[f"Q[alpha={alpha:g}]"][0]
    want = _mandel_q_mpmath(lam, alpha)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0, -1.0])
@pytest.mark.parametrize("xi", [0.3, 0.6, 0.4j])
def test_frame_weights_match_row_dot_oracle(lam, xi):
    # the oracle projects the standard-basis vector onto each bra <m|_lam;
    # every weight at a fixed cutoff must agree, and so must the auto-cutoff
    # Mandel Q
    basis = LambdaBasis(lam, 1604)
    state = lambda_squeezed(xi, basis)
    M = state.truncation + 64
    psi = state.to_standard(M)
    P = np.array([abs(lambda_ket(m, basis, M) @ psi) ** 2 for m in range(M)])
    gxi, gmu, _ = np.array([state._gaussian], dtype=complex).T
    weights, shift, _ = _frame_weights(gxi, gmu, [basis], M)
    got = weights[:, 0] * math.exp(shift[0])
    assert np.all(np.abs(got - P) <= 1e-12 * np.maximum(1.0, P))
    m = np.arange(M, dtype=float)
    mean, second = float(m @ P), float(m * m @ P)
    want_q = (second - mean * mean) / mean - 1.0
    got_q = number_moments(state).mandel_q
    assert abs(got_q - want_q) <= 1e-10 * max(1.0, abs(want_q))


def test_fig1_stated_tolerance_at_lambda_zero():
    # at lam = 0 the frame weights are Poisson and Q is exactly 0; a cell
    # carries up to about 2 eps x^4 ln x with x = |lam + alpha|
    alphas = [2.0, 5.0, 10.0, 20.0, 40.0, 56.0]
    res = sweep_fig1(alphas, (0.0, 1.0, 2))
    for alpha in alphas:
        got = res.series[f"Q[alpha={alpha:g}]"][0]
        bound = 2.0 * np.finfo(float).eps * alpha ** 4 * math.log(alpha)
        assert abs(got) <= bound, alpha


def test_squeezed_moments_reads_coherent_columns():
    # the kernel parameters come from each state's own (xi, mu), so a column
    # of exact coherent states is served like a squeezed one
    state = lambda_coherent(1.0, LambdaBasis(0.5, 256))
    assert squeezed_moments([state]) == [number_moments(state)]
    standard = squeezed_moments([state], "standard")[0]
    assert standard.basis_tag == "standard" and standard.prob_sum == 1.0
    assert abs(standard.mandel_q) <= 1e-15


@pytest.mark.parametrize("tag", ["lambda", "standard"])
def test_squeezed_moments_refuses_a_truncated_series(tag):
    # the figures measure exact states only; a truncated series is another
    # state, measured one at a time by number_moments
    basis = LambdaBasis(1.0, _SQUEEZED_MAX_N)
    column = [lambda_squeezed(0.3, basis), lambda_squeezed(0.3, basis, 40)]
    with pytest.raises(TypeError, match="number_moments"):
        squeezed_moments(column, tag)
    assert math.isfinite(number_moments(column[1]).mandel_q)


@pytest.mark.parametrize("make, z, lams", [
    (lambda_squeezed, 0.3, (1.0, 2.0)),
    (lambda_coherent, 1.0, (1.0, 3.0)),
])
def test_squeezed_moments_refuses_exact_states_on_two_bases(make, z, lams):
    # every state's weights were read on the first state's basis: Q -5.126
    # for the squeezed state at lam 2 (its own -15.00), -6.087 for the
    # coherent one at lam 3 (its own -29.21)
    column = [make(z, LambdaBasis(lam, _SQUEEZED_MAX_N)) for lam in lams]
    with pytest.raises(ValueError, match=rf"lam={lams[0]}.* and .*lam={lams[1]}"):
        squeezed_moments(column)
    # standard-basis moments do not read the basis
    assert len(squeezed_moments(column, "standard")) == 2


def test_squeezed_column_moments_peak_memory():
    # the default xi grid at lam 1.5 (140 states inside the guard) peaks at
    # 9.0 MB (numpy 2.4, x86-64); a weight loop that kept each horizon's
    # log array alive into the next read 9.6 MB
    basis = LambdaBasis(1.5, _SQUEEZED_MAX_N)
    column = []
    for xi in np.linspace(0.02, 0.9, 150):
        try:
            column.append(lambda_squeezed(complex(xi), basis))
        except DomainError:
            pass
    assert len(column) == 140
    tracemalloc.start()
    try:
        squeezed_moments(column)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.3e6, peak


def test_fig1_cell_with_underflowing_weights_matches_mpmath(capsys):
    # at lam 29.9, alpha -30 every weight carries e^{-|alpha|^2} = e^{-900}
    # and their sum is 1.4e-391, yet Q is well defined; at lam 30,
    # lam + alpha = 0 and Q is undefined (an empty cell, no warning)
    res = sweep_fig1([-30.0, 1.0], (29.9, 30.0, 2))
    got, undefined = res.series["Q[alpha=-30]"]
    with mpmath.workdps(40):
        x, r2 = mpmath.mpf(29.9) ** 2, (mpmath.mpf(29.9) - 30) ** 2
        lag_prev, lag, P, m = mpmath.mpf(1), mpmath.mpf(1), mpmath.exp(-900), 0
        first, sums = P, [mpmath.mpf(0)] * 3
        while P > mpmath.mpf(10) ** -40 * first:
            sums = [s + m ** j * P for j, s in enumerate(sums)]
            lag_prev, lag = lag, ((2 * m + 1 + x) * lag - m * lag_prev) / (m + 1)
            m += 1
            P = P * r2 * lag_prev / (m * lag)
        _, mean, second = sums
        want = float((second - mean * mean) / mean - 1)
    assert abs(got - want) <= 1e-12
    assert undefined is None
    assert "alpha=-30" not in capsys.readouterr().err


_UNIT = st.floats(0.0, 1.0, exclude_max=True)
_ANGLE = st.floats(-math.pi, math.pi)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(-3.0, 3.0), frac=_UNIT, theta=_ANGLE,
       size=st.floats(0.0, 3.0), phi=_ANGLE)
def test_conjugating_xi_or_alpha_leaves_every_statistic_unchanged(
        lam, frac, theta, size, phi):
    # with lam real, conjugating xi or alpha conjugates every complex number
    # on the way (nu, the g_m recurrence, the closed-form norms and moments),
    # and rounding is symmetric in sign, so every statistic is the same bits
    # (compared by repr, which is exact and lets a vacuum's NaN Q equal
    # itself): no operation on these paths does more than flip imaginary
    # signs, so no tolerance is needed
    basis = LambdaBasis(lam, _SQUEEZED_MAX_N)
    xi = frac * 0.95 * radius_min(basis) * complex(math.cos(theta), math.sin(theta))
    alpha = size * complex(math.cos(phi), math.sin(phi))

    def statistics(state):
        try:
            frame = number_moments(state)
        except TruncationError as exc:  # an unsettled tail, on both sides
            frame = str(exc)
        return (frame, quadrature_variances(state),
                squeezed_moments([state], "standard"))

    for make, z in ((lambda_squeezed, xi), (lambda_coherent, alpha)):
        assert repr(statistics(make(z, basis))) == \
            repr(statistics(make(z.conjugate(), basis)))
