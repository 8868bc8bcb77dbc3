"""Coherent and squeezed states on the deformed basis."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfock import states
from lfock.fock import LambdaBasis, gram
from lfock.operators import TruncationError, build_ladders, eigen_residual
from lfock.states import (DomainError, _coherent_coeffs, _even_log_weights,
                          coherent_overlap, displaced_form, evolve,
                          lambda_coherent, lambda_squeezed, radius_estimate,
                          radius_min, squeezed_norm_constant,
                          squeezed_operator_form, squeezed_vacuum)


def _mismatch(u, v):
    return 1.0 - abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("alpha", [1.0, 2.0j, 1.0 + 1.0j])
def test_coherent_matches_displaced_vacuum(lam, alpha):
    basis = LambdaBasis(lam, 256)
    state = lambda_coherent(alpha, basis)
    N = state.truncation
    got = state.to_standard(N)
    want = displaced_form(alpha, basis, max(N, 60))[:N]
    assert _mismatch(got, want) < 1e-10
    # componentwise too, phase included
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("alpha", [1.0, 2.0j, 1.0 + 1.0j])
def test_coherent_is_lowering_eigenvector(lam, alpha):
    basis = LambdaBasis(lam, 256)
    state = lambda_coherent(alpha, basis)
    N = state.truncation + 10
    vec = state.to_standard(N)
    a, _, _ = build_ladders(N)
    assert eigen_residual(a, vec, alpha) < 1e-9


def test_coherent_alpha_zero_is_deformed_vacuum():
    basis = LambdaBasis(1.0, 16)
    state = lambda_coherent(0.0, basis)
    assert state.expansion.support == 1
    assert state.expansion.coeffs[0] == 1.0 + 0.0j


def test_coherent_explicit_truncation_honored():
    basis = LambdaBasis(0.5, 64)
    state = lambda_coherent(1.0, basis, N=17)
    assert state.truncation == 17


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("pair", [(1.0, 0.7 + 0.4j), (2.0j, 1.0 + 1.0j),
                                  (-1.0, 0.5)])
def test_overlap_kernel(lam, pair):
    alpha, beta = (complex(z) for z in pair)
    basis = LambdaBasis(lam, 256)
    got = coherent_overlap(alpha, beta, basis)
    want = cmath.exp(1j * lam * (beta.imag - alpha.imag)) * cmath.exp(
        np.conj(alpha) * beta - abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2)
    assert abs(got - want) < 1e-9


def test_overlap_conjugate_symmetry():
    basis = LambdaBasis(1.0, 128)
    ab = coherent_overlap(0.8 + 0.2j, -0.5 + 1.0j, basis)
    ba = coherent_overlap(-0.5 + 1.0j, 0.8 + 0.2j, basis)
    assert abs(ab - np.conj(ba)) < 1e-12


@pytest.mark.parametrize("t", [0.1, math.pi, 10.0])
def test_evolution_stays_coherent(t):
    basis = LambdaBasis(0.5, 256)
    alpha = 1.0 + 0.5j
    state = lambda_coherent(alpha, basis)
    moved = evolve(state, t)
    assert moved.alpha == pytest.approx(alpha * cmath.exp(-1j * t))
    assert abs(abs(moved.phase) - 1.0) < 1e-12
    N = moved.truncation + 10
    a, _, _ = build_ladders(N)
    assert eigen_residual(a, moved.to_standard(N), moved.alpha) < 1e-9
    assert moved.expansion.norm() == pytest.approx(1.0, abs=1e-10)


def test_evolution_composes():
    basis = LambdaBasis(1.0, 256)
    state = lambda_coherent(0.7 - 0.3j, basis)
    one = evolve(evolve(state, 0.4), 1.1)
    two = evolve(state, 1.5)
    N = max(one.truncation, two.truncation)
    assert np.max(np.abs(one.to_standard(N) - two.to_standard(N))) < 1e-10


def test_coherent_truncation_cap_is_reported():
    basis = LambdaBasis(3.0, 512)
    with pytest.raises(TruncationError):
        lambda_coherent(20.0, basis)


@pytest.mark.parametrize("alpha", [20.0, -20.0, 12.0 + 16.0j, 0.3j])
def test_coherent_coefficients_match_ratio_recurrence(alpha):
    # the log-space coefficients against C_n = C_{n-1} alpha / (rho_n sqrt n)
    # out to the truncation cap, where alpha^n alone overflows
    basis = LambdaBasis(3.0, 512)
    got = _coherent_coeffs(complex(alpha), basis, 512)
    want = np.zeros(512, dtype=complex)
    want[0] = math.exp(-3.0 * complex(alpha).real - abs(alpha) ** 2 / 2.0)
    for n in range(1, 512):
        want[n] = want[n - 1] * alpha / (basis.rho[n] * math.sqrt(n))
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) < 1e-12


def test_squeezed_vacuum_normalization_constant():
    for xi in (0.2, 0.5 + 0.3j, 0.9):
        v = squeezed_vacuum(xi)
        assert v[0] == pytest.approx((1 - abs(xi) ** 2) ** 0.25, rel=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v[1::2]) == 0.0


def test_squeezed_vacuum_diverges_on_unit_circle():
    with pytest.raises(DomainError) as info:
        squeezed_vacuum(1.0)
    assert info.value.radius == 1.0
    with pytest.raises(DomainError):
        squeezed_vacuum(1.2j)


def test_squeezed_flat_limit_matches_standard():
    basis = LambdaBasis(0.0, 256)
    state = lambda_squeezed(0.35, basis)
    N = state.truncation
    want = squeezed_vacuum(0.35, N)
    assert np.max(np.abs(state.to_standard(N) - want)) < 1e-12


@pytest.mark.parametrize("lam,xi", [(0.5, 0.2),
                                    (1.0, 0.3 * cmath.exp(0.25j * math.pi))])
def test_squeezed_solves_defining_equation(lam, xi):
    basis = LambdaBasis(lam, 512)
    state = lambda_squeezed(xi, basis)
    N = state.truncation + 20
    vec = state.to_standard(N)
    a, _, adl = build_ladders(N, lam)
    resid = np.linalg.norm(a @ vec - xi * (adl @ vec))
    assert resid < 1e-8


def test_squeezed_structure():
    basis = LambdaBasis(1.0, 512)
    state = lambda_squeezed(0.25, basis)
    assert np.linalg.norm(state.expansion.coeffs[1::2]) == 0.0
    assert state.expansion.norm() == pytest.approx(1.0, abs=1e-10)
    zero = lambda_squeezed(0.0, basis)
    assert zero.expansion.support == 1
    assert zero.norm_constant == 1.0


@pytest.mark.parametrize("lam,xi", [(0.5, 0.2),
                                    (1.0, 0.3 * cmath.exp(0.25j * math.pi))])
def test_norm_constant_routes_agree(lam, xi):
    basis = LambdaBasis(lam, 512)
    state = lambda_squeezed(xi, basis)
    independent = squeezed_norm_constant(xi, basis)
    assert state.norm_constant == pytest.approx(independent, rel=1e-9)


def test_squeezed_three_routes_agree():
    lam, xi = 1.0, 0.3
    basis = LambdaBasis(lam, 512)
    N = 200
    series = lambda_squeezed(xi, basis).to_standard(N)
    operator = squeezed_operator_form(xi, basis, N)[:N]
    e0 = np.zeros(N, dtype=complex)
    e0[0] = 1.0
    _, _, adl = build_ladders(N, lam)
    from lfock.operators import expm_apply
    direct = expm_apply(0.5 * xi * (adl @ adl), e0)
    assert _mismatch(series, operator) < 1e-8
    assert _mismatch(series, direct) < 1e-8


def test_guard_rejects_xi_near_radius():
    basis = LambdaBasis(1.0, 512)
    with pytest.raises(DomainError) as info:
        lambda_squeezed(0.93, basis)
    assert 0.0 < info.value.radius <= 2.0
    with pytest.raises(DomainError):
        squeezed_norm_constant(0.93, basis)


def test_radius_flat_case_is_unit_disk():
    basis = LambdaBasis(0.0, 1600)
    assert abs(radius_estimate(basis) - 1.0) <= 0.05


def test_radius_shrinks_with_deformation():
    r_half = radius_estimate(LambdaBasis(0.5, 1600))
    r_two = radius_estimate(LambdaBasis(2.0, 1600))
    assert r_two <= r_half <= 1.0


def test_radius_grid_refinement_stable():
    basis = LambdaBasis(1.0, 1600)
    coarse = radius_estimate(basis, factor=1.05)
    fine = radius_estimate(basis, factor=math.sqrt(1.05))
    assert abs(fine - coarse) / coarse < 0.05


def test_radius_min_no_larger_than_axis_ray():
    basis = LambdaBasis(1.0, 1600)
    assert radius_min(basis) <= radius_estimate(basis) + 1e-15


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=30, deadline=None)
def test_overlap_magnitude_bounded(x, y):
    basis = LambdaBasis(0.8, 256)
    val = coherent_overlap(complex(x, y), 1.0 + 0.0j, basis)
    assert abs(val) <= 1.0 + 1e-10


# The per-ray radius scan as it stood before the rays shared one scan: each
# ray walks the r grid alone and builds the complex increment matrix G u u^H.
# Kept here as the oracle the shared scan must reproduce bit for bit.
def _oracle_cauchy_run(flags):
    run = np.convolve(flags.astype(int), np.ones(20, dtype=int), mode="valid")
    return bool(run.size) and bool(np.any(run == 20))


def _oracle_ray_converges(r, phase, base_logs, G_even):
    T = base_logs.shape[0] - 1
    logs = base_logs + np.arange(T + 1) * math.log(r)
    if float(np.max(logs)) > 300.0:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.exp(logs)
        csum = np.cumsum(mags) - mags
        bound = mags * (2.0 * csum + mags)
        if _oracle_cauchy_run(bound < 1e-12):
            return True
        u = mags * np.exp(1j * phase * np.arange(T + 1))
        M = G_even * np.outer(np.conj(u), u)
        inc = np.abs(2.0 * np.real(np.sum(np.tril(M, -1), axis=1))
                     + np.real(np.diag(M)))
        return _oracle_cauchy_run(inc < 1e-12)


def _oracle_radius(basis, phase, factor):
    T = 800
    base_logs = 0.5 * (basis.log_laguerre[0: 2 * T + 1: 2]
                       + _even_log_weights(T))
    G_even = gram(basis, 2 * T + 1)[::2, ::2]
    last_ok = 0.0
    r = 0.01
    while r <= 2.0:
        if not _oracle_ray_converges(r, phase, base_logs, G_even):
            break
        last_ok = r
        r *= factor
    else:
        last_ok = 2.0
    return last_ok


# 1.089... and 2.075... are points where the ray radii differ by phase
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.88, 1.089041095890411, 1.8,
                                 2.0753424657534247, 2.9, 4.0, -1.0])
def test_shared_radius_scan_matches_per_ray_oracle(lam, monkeypatch):
    monkeypatch.setattr(states, "_RADIUS_CACHE", {})
    monkeypatch.setattr(states, "_RADIUS_MIN_CACHE", {})
    basis = LambdaBasis(lam, 1604)
    phases = [k * math.pi / 4.0 for k in range(5)]
    for factor in (1.05, math.sqrt(1.05)):
        want = [_oracle_radius(basis, p, factor) for p in phases]
        got = [radius_estimate(basis, p, factor) for p in phases]
        assert got == want
        if factor == 1.05:
            assert radius_min(basis) == min(want)
