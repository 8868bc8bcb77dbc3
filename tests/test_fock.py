"""Deformed number basis: expansions, overlaps, ladder action, matrix elements."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cholesky

from lfock.fock import (LambdaBasis, LambdaExpansion, apply_t_operator,
                        expansion_matrix, gram, gram_coefficient,
                        iterated_lowering_norm, ladder_down, ladder_up,
                        lambda_ket, lowering_scalar, matel_annihilation_power,
                        matel_creation_power, matel_normal_ordered,
                        overlap_analytic, raising_scalar, to_lambda)
from lfock.operators import build_ladders
from lfock.specfun import laguerre0

LAMBDAS = [0.1, 0.5, 1.0, 2.0, 3.0]


def test_first_ket_components_frozen():
    # n=1, lam=1: L_1 = 2, so the state is (|0> + |1>)/sqrt(2)
    basis = LambdaBasis(1.0, 8)
    v = lambda_ket(1, basis, 4)
    assert v[0] == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert v[1] == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert abs(v[2]) == 0.0


@pytest.mark.parametrize("lam", LAMBDAS)
def test_expansions_are_normalized(lam):
    basis = LambdaBasis(lam, 48)
    for n in range(41):
        v = lambda_ket(n, basis, 48)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12), f"n={n}"


@pytest.mark.parametrize("lam", LAMBDAS)
def test_shift_operator_route_agrees(lam):
    # same state via exp(lam a) acting on the bare number state
    basis = LambdaBasis(lam, 48)
    for n in range(0, 41, 4):
        direct = lambda_ket(n, basis, 48)
        shifted = apply_t_operator(n, basis, 48)
        assert np.max(np.abs(direct - shifted)) < 1e-12, f"n={n}"


@pytest.mark.parametrize("lam", LAMBDAS)
def test_analytic_overlap_matches_vector_dot(lam):
    basis = LambdaBasis(lam, 64)
    for m in range(0, 33, 4):
        for n in range(m, 33, 4):
            vm = lambda_ket(m, basis, 64)
            vn = lambda_ket(n, basis, 64)
            got = overlap_analytic(m, n, basis)
            assert got == pytest.approx(float(vm @ vn), abs=1e-10)


def test_overlap_symmetry_is_bitwise():
    basis = LambdaBasis(1.3, 32)
    for m in range(0, 20, 3):
        for n in range(0, 20, 3):
            assert overlap_analytic(m, n, basis) == overlap_analytic(
                n, m, basis)


def test_overlap_diagonal_and_lambda_zero():
    basis = LambdaBasis(0.9, 16)
    assert overlap_analytic(5, 5, basis) == 1.0
    flat = LambdaBasis(0.0, 16)
    assert overlap_analytic(2, 7, flat) == 0.0
    assert overlap_analytic(3, 3, flat) == 1.0


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_gram_routes_agree(lam):
    basis = LambdaBasis(lam, 36)
    G = gram(basis, 30)
    G_coeff = gram_coefficient(basis, 30)
    assert np.max(np.abs(G - G_coeff)) < 1e-10
    for m in range(0, 30, 5):
        for n in range(0, 30, 5):
            assert G[m, n] == pytest.approx(
                overlap_analytic(m, n, basis), abs=1e-10)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
def test_gram_is_positive_definite_small_lambda(lam):
    G = gram(LambdaBasis(lam, 48), 41)
    cholesky(G)  # raises LinAlgError if not SPD


@pytest.mark.parametrize("lam", [2.0, 3.0])
def test_gram_positivity_certificate_large_lambda(lam):
    # floating-point Cholesky fails on nearly dependent rows; certify
    # positivity structurally instead: G = E E^T with unit-diagonal-free
    # invertible lower-triangular E, plus an eigenvalue floor check
    basis = LambdaBasis(lam, 48)
    G = gram(basis, 41)
    E = expansion_matrix(basis, 41)
    assert np.allclose(G, E @ E.T, atol=1e-10)
    assert np.all(np.diag(E) > 0)
    w = np.linalg.eigvalsh(G)
    assert w.min() > -1e-10 * np.linalg.norm(G)


@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_ladder_scalars_match_dense_action(lam):
    N = 40
    basis = LambdaBasis(lam, N)
    a, _, adl = build_ladders(N, lam)
    for n in range(31):
        v = lambda_ket(n, basis, N).astype(complex)
        c_down, idx_down = ladder_down(n, basis)
        got = a @ v
        if n == 0:
            assert idx_down == -1 and c_down == 0.0
            assert np.linalg.norm(got) < 1e-12
        else:
            want = c_down * lambda_ket(idx_down, basis, N)
            assert np.max(np.abs(got - want)) < 1e-10, f"down n={n}"
        c_up, idx_up = ladder_up(n, basis)
        assert idx_up == n + 1
        want_up = c_up * lambda_ket(n + 1, basis, N)
        assert np.max(np.abs(adl @ v - want_up)) < 1e-10, f"up n={n}"


@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_number_like_eigenvalue(lam):
    # adl a acts diagonally with eigenvalue n
    N = 36
    basis = LambdaBasis(lam, N)
    a, _, adl = build_ladders(N, lam)
    M = adl @ a
    for n in range(31):
        v = lambda_ket(n, basis, N).astype(complex)
        assert np.max(np.abs(M @ v - n * v)) < 1e-10, f"n={n}"


def test_iterated_scalars_compose():
    basis = LambdaBasis(1.2, 40)
    for n in range(3, 25, 4):
        k = 3
        prod = 1.0
        m = n
        for _ in range(k):
            c, m = ladder_down(m, basis)
            prod *= c
        assert lowering_scalar(n, k, basis) == pytest.approx(prod, rel=1e-12)
        full = prod
        while m > 0:
            c, m = ladder_down(m, basis)
            full *= c
        assert iterated_lowering_norm(n, basis) == pytest.approx(full,
                                                                 rel=1e-12)
        assert lowering_scalar(n, n, basis) == pytest.approx(full, rel=1e-12)
    assert lowering_scalar(2, 5, basis) == 0.0
    up = raising_scalar(4, 2, basis)
    c1, _ = ladder_up(4, basis)
    c2, _ = ladder_up(5, basis)
    assert up == pytest.approx(c1 * c2, rel=1e-12)


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.0])
def test_matrix_elements_against_dense_oracle(lam):
    # the kets live in the standard basis, so the ambient inner product is a
    # plain dot; no Gram factor here
    N = 24
    basis = LambdaBasis(lam, N)
    a, _, adl = build_ladders(N, lam)
    apow = [np.linalg.matrix_power(a, k) for k in range(4)]
    upow = [np.linalg.matrix_power(adl, r) for r in range(4)]
    kets = [lambda_ket(n, basis, N).astype(complex) for n in range(13)]
    for m in range(0, 13, 3):
        for n in range(0, 13, 3):
            for r in range(4):
                for k in range(4):
                    dense_cr = kets[m] @ (upow[r] @ kets[n])
                    got_cr = matel_creation_power(m, n, r, basis)
                    assert got_cr == pytest.approx(
                        dense_cr.real, rel=1e-9, abs=1e-9), (m, n, r, "cr")
                    dense_an = kets[m] @ (apow[k] @ kets[n])
                    got_an = matel_annihilation_power(m, n, k, basis)
                    assert got_an == pytest.approx(
                        dense_an.real, rel=1e-9, abs=1e-9), (m, n, k, "an")
                    dense_no = kets[m] @ (upow[r] @ (apow[k] @ kets[n]))
                    got_no = matel_normal_ordered(m, n, r, k, basis)
                    assert got_no == pytest.approx(
                        dense_no.real, rel=1e-9, abs=1e-9), (m, n, r, k)


def test_matrix_elements_flat_limit():
    # lam=0 collapses everything to the usual Fock matrix elements
    basis = LambdaBasis(0.0, 16)
    assert matel_creation_power(5, 3, 2, basis) == pytest.approx(
        math.sqrt(5 * 4), rel=1e-12)
    assert matel_creation_power(5, 3, 1, basis) == 0.0
    assert matel_annihilation_power(3, 5, 2, basis) == pytest.approx(
        math.sqrt(5 * 4), rel=1e-12)
    assert matel_normal_ordered(4, 4, 2, 2, basis) == pytest.approx(
        4 * 3, rel=1e-12)
    assert matel_normal_ordered(4, 3, 2, 1, basis) == pytest.approx(
        math.sqrt(4 * 3 * 3), rel=1e-12)


def test_to_lambda_roundtrip():
    basis = LambdaBasis(0.8, 24)
    rng = np.random.default_rng(7)
    v = rng.normal(size=20) + 1j * rng.normal(size=20)
    coeffs = to_lambda(v, basis)
    exp = LambdaExpansion(basis, coeffs)
    assert np.max(np.abs(exp.to_standard(20) - v)) < 1e-10


def test_expansion_norm_matches_standard_norm():
    basis = LambdaBasis(1.1, 24)
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
    exp = LambdaExpansion(basis, coeffs)
    assert exp.norm() == pytest.approx(
        float(np.linalg.norm(exp.to_standard(40))), rel=1e-10)


def test_beyond_horizon_rejected():
    basis = LambdaBasis(0.5, 8)
    with pytest.raises(ValueError):
        lambda_ket(9, basis)
    with pytest.raises(ValueError):
        overlap_analytic(0, 9, basis)


def test_laguerre_enters_normalization():
    # |<0|n>_lam|^2 = lam^(2n) / (n! L_n)
    lam = 0.7
    basis = LambdaBasis(lam, 16)
    for n in range(1, 9):
        v = lambda_ket(n, basis, 16)
        want = lam ** (2 * n) / (math.factorial(n) * laguerre0(n, lam))
        assert v[0] ** 2 == pytest.approx(want, rel=1e-11)


@given(st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=150, deadline=None)
def test_overlap_bounded_by_one(m, n):
    basis = LambdaBasis(1.7, 64)
    val = overlap_analytic(m, n, basis)
    assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


def test_non_finite_lambda_rejected():
    for lam in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            LambdaBasis(lam, 8)


@pytest.mark.parametrize("lam", [0.0, 0.7, -1.3])
def test_cached_matrices_are_read_only_and_grow_exactly(lam):
    basis = LambdaBasis(lam, 64)
    fresh = LambdaBasis(lam, 64)
    for build in (gram, expansion_matrix):
        small = build(basis, 20)
        large = build(basis, 50)  # grows the cached matrix
        want = build(fresh, 50)
        for M in (small, large, build(basis, 20)):
            assert not M.flags.writeable
            with pytest.raises(ValueError):
                M[0, 0] = 2.0
            assert np.array_equal(M, want[: M.shape[0], : M.shape[0]])
