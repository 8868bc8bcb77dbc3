"""Photon statistics: deformed-projection distribution, Mandel Q, quadratures."""

import math

import mpmath
import numpy as np
import pytest
from scipy.stats import poisson

from lfock.fock import LambdaBasis, LambdaExpansion, lambda_ket
from lfock.specfun import laguerre0
from lfock.states import (DomainError, lambda_coherent, lambda_squeezed,
                          squeezed_vacuum)
from lfock.stats import (QuadratureReport, StatisticsReport, number_moments,
                         p_lambda, quadrature_variances)
from lfock.sweeps import sweep_fig1


def _p_collapsed(m, alpha, lam, basis):
    # binomial collapse of the double sum: e^{-|a|^2} |lam+a|^{2m} / (m! L_m)
    alpha = complex(alpha)
    return (math.exp(-abs(alpha) ** 2) * abs(lam + alpha) ** (2 * m)
            / (math.factorial(m) * laguerre0(m, lam)))


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
                         [(4.9, -2.0), (20.0, -1.0), (20.0, -2.0)])
def test_fig1_cells_match_mpmath_closed_form(lam, alpha):
    # alpha < 0 with large C_0 = exp(-lam alpha - alpha^2/2): summing the
    # alternating expansion coefficients loses up to all digits here
    res = sweep_fig1([alpha], (lam, lam, 2))
    got = res.series[f"Q[alpha={alpha:g}]"][0]
    want = _mandel_q_mpmath(lam, alpha)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0, -1.0])
@pytest.mark.parametrize("xi", [0.3, 0.6, 0.4j])
def test_frame_weights_match_row_dot_oracle(lam, xi):
    # non-coherent states are read through |(G c)_m|^2; the oracle projects
    # the standard-basis vector onto each bra <m|_lam. Every cutoff's
    # prob_sum pins one more weight, and the auto-cutoff Mandel Q must agree
    basis = LambdaBasis(lam, 1604)
    state = lambda_squeezed(xi, basis)
    M = state.truncation + 64
    psi = state.to_standard(M)
    P = np.array([abs(lambda_ket(m, basis, M) @ psi) ** 2 for m in range(M)])
    cum = np.cumsum(P)
    for cutoff in range(1, M + 1):
        got = number_moments(state, cutoff=cutoff).prob_sum
        assert abs(got - cum[cutoff - 1]) <= 1e-12 * max(1.0, cum[cutoff - 1])
    m = np.arange(M, dtype=float)
    mean, second = float(m @ P), float(m * m @ P)
    want_q = (second - mean * mean) / mean - 1.0
    got_q = number_moments(state).mandel_q
    assert abs(got_q - want_q) <= 1e-10 * max(1.0, abs(want_q))
