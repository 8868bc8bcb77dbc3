"""Deformed number basis: expansions, overlaps, ladder action, matrix elements."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cholesky, solve_triangular

from lfock.families import nonlinear_cs
from lfock.fock import (DomainError, LambdaBasis, LambdaExpansion,
                        _even_gram_block, _frame_coeffs, _gram_rows, gram,
                        lambda_ket, to_lambda)
from lfock.operators import (apply_t_operator, build_ladders, expansion_matrix,
                             ladder_down, ladder_up, lowering_scalar,
                             matel_normal_ordered, overlap_analytic,
                             raising_scalar)
from lfock.specfun import laguerre0_log
from lfock.states import squeezed_vacuum

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


@pytest.mark.parametrize("lam", LAMBDAS + [-1.3, 0.0, 0.7])
def test_analytic_overlap_matches_vector_dot(lam):
    basis = LambdaBasis(lam, 64)
    idx = np.arange(0, 33, 4)
    # the array call evaluates every pair at once; each element must be the
    # scalar call's value (one code path, -inf padding summed as exact zeros)
    G = overlap_analytic(idx[:, None], idx[None, :], basis)
    assert G.shape == (idx.size, idx.size)
    scalar = np.array([[overlap_analytic(m, n, basis) for n in range(0, 33, 4)]
                       for m in range(0, 33, 4)])
    np.testing.assert_allclose(G, scalar, rtol=1e-15, atol=0.0)
    for m in range(0, 33, 4):
        for n in range(m, 33, 4):
            vm = lambda_ket(m, basis, 64)
            vn = lambda_ket(n, basis, 64)
            got = overlap_analytic(m, n, basis)
            assert isinstance(got, float)
            assert got == pytest.approx(float(vm @ vn), abs=1e-10)


def test_overlap_symmetry_is_bitwise():
    basis = LambdaBasis(1.3, 32)
    for m in range(0, 20, 3):
        for n in range(0, 20, 3):
            assert overlap_analytic(m, n, basis) == overlap_analytic(
                n, m, basis)
    idx = np.arange(0, 20, 3)
    for lam in (1.3, -1.3, 0.0, 0.7, 2.0):
        basis = LambdaBasis(lam, 32)
        G = overlap_analytic(idx[:, None], idx[None, :], basis)
        assert np.array_equal(G, G.T)
        # the transposed call and a broadcast row give the same bits
        assert np.array_equal(overlap_analytic(idx[None, :], idx[:, None], basis), G)
        assert np.array_equal(overlap_analytic(idx[3], idx, basis), G[3])


def test_overlap_diagonal_and_lambda_zero():
    basis = LambdaBasis(0.9, 16)
    assert overlap_analytic(5, 5, basis) == 1.0
    flat = LambdaBasis(0.0, 16)
    assert overlap_analytic(2, 7, flat) == 0.0
    assert overlap_analytic(3, 3, flat) == 1.0
    idx = np.arange(17)
    assert np.array_equal(overlap_analytic(idx[:, None], idx[None, :], flat),
                          np.eye(17))
    for lam in (0.9, -1.3, 0.7, 2.0):
        G = overlap_analytic(idx[:, None], idx[None, :], LambdaBasis(lam, 16))
        assert np.all(np.diag(G) == 1.0)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_gram_routes_agree(lam):
    basis = LambdaBasis(lam, 36)
    G = gram(basis, 30)
    E = expansion_matrix(basis, 30)
    G_coeff = E @ E.T
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
        assert lowering_scalar(n, n, basis) == pytest.approx(full, rel=1e-12)
    assert lowering_scalar(2, 5, basis) == 0.0
    up = raising_scalar(4, 2, basis)
    c1, _ = ladder_up(4, basis)
    c2, _ = ladder_up(5, basis)
    assert up == pytest.approx(c1 * c2, rel=1e-12)
    # array calls equal the scalar calls elementwise, k > n (0) included
    n, k = np.arange(12)[:, None], np.arange(5)[None, :]
    down = lowering_scalar(n, k, basis)
    assert down.shape == (12, 5) and np.all(down[np.arange(4), 4] == 0.0)
    np.testing.assert_allclose(down, [[lowering_scalar(i, j, basis) for j in range(5)]
                                      for i in range(12)], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(raising_scalar(n, k, basis),
                               [[raising_scalar(i, j, basis) for j in range(5)]
                                for i in range(12)], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.0, -1.3, 0.0])
def test_matrix_elements_against_dense_oracle(lam):
    # the kets live in the standard basis, so the ambient inner product is a
    # plain dot; no Gram factor here. One array call per (r, k) against the
    # batched dense K U^r A^k K^T, K the stacked kets. Scaled error
    # |got - dense| / max(1, |dense|): the worst measured over this grid is
    # 7.3e-15
    N = 24
    basis = LambdaBasis(lam, N)
    a, _, adl = build_ladders(N, lam)
    kets = np.array([lambda_ket(n, basis, N) for n in range(16)], dtype=complex)
    idx = np.arange(16)
    for r in range(4):
        for k in range(4):
            dense = (kets @ np.linalg.matrix_power(adl, r)
                     @ np.linalg.matrix_power(a, k) @ kets.T).real
            got = matel_normal_ordered(idx[:, None], idx[None, :], r, k, basis)
            err = np.abs(got - dense) / np.maximum(1.0, np.abs(dense))
            assert err.max() <= 2e-14, (r, k, np.unravel_index(err.argmax(), err.shape))
            assert np.all(got[:, :k] == 0.0)  # columns n < k
            if (r, k) in ((0, 0), (3, 3)):  # a scalar call is the array element
                np.testing.assert_allclose(
                    got, [[matel_normal_ordered(m, n, r, k, basis) for n in range(16)]
                          for m in range(16)], rtol=1e-15, atol=0.0)


def test_matrix_elements_flat_limit():
    # lam=0 collapses everything to the usual Fock matrix elements
    basis = LambdaBasis(0.0, 16)
    assert matel_normal_ordered(5, 3, 2, 0, basis) == pytest.approx(
        math.sqrt(5 * 4), rel=1e-12)
    assert matel_normal_ordered(5, 3, 1, 0, basis) == 0.0
    assert matel_normal_ordered(3, 5, 0, 2, basis) == pytest.approx(
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
    # an array call checks its extreme indices and raises the scalar
    # call's error, message included
    for scalar_call, array_call in (
            (lambda: overlap_analytic(0, 9, basis),
             lambda: overlap_analytic(np.arange(3)[:, None], np.array([0, 9, 4]), basis)),
            (lambda: overlap_analytic(-1, 2, basis),
             lambda: overlap_analytic(np.array([3, -1]), 2, basis)),
            (lambda: lowering_scalar(9, 1, basis),
             lambda: lowering_scalar(np.array([2, 9]), np.array([1, 1]), basis)),
            (lambda: raising_scalar(7, 2, basis),
             lambda: raising_scalar(np.array([1, 7]), 2, basis)),
            (lambda: matel_normal_ordered(9, 1, 0, 0, basis),
             lambda: matel_normal_ordered(np.array([0, 9]), 1, 0, 0, basis)),
            (lambda: matel_normal_ordered(1, 8, 3, 1, basis),
             lambda: matel_normal_ordered(1, np.array([2, 8]), 3, 1, basis))):
        with pytest.raises(ValueError) as scalar_err:
            scalar_call()
        with pytest.raises(ValueError, match=f"^{re.escape(str(scalar_err.value))}$"):
            array_call()


def test_laguerre_enters_normalization():
    # |<0|n>_lam|^2 = lam^(2n) / (n! L_n)
    lam = 0.7
    basis = LambdaBasis(lam, 16)
    for n in range(1, 9):
        v = lambda_ket(n, basis, 16)
        lag = math.exp(laguerre0_log(n, lam))
        want = lam ** (2 * n) / (math.factorial(n) * lag)
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


@pytest.mark.parametrize("lam", [0.7, -1.3, 2.9, 0.0, 30.0, 1e-8])
def test_gram_is_bit_for_bit_the_corner_of_every_larger_gram(lam):
    # what lets stats.number_moments grow one matrix instead of rebuilding
    basis = LambdaBasis(lam, 600)
    big = gram(basis, 601)
    for size in (1, 2, 33, 66, 132, 264, 600):
        assert gram(basis, size).tobytes() == big[:size, :size].tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.7, -1.3, 2.9])
def test_gram_and_norm_read_one_triangle_of_the_recurrence(lam):
    # gram() writes each closed-triangle row of _gram_rows, of either
    # parity, with its mirror; norm_and_condition streams the same rows
    # (diagonal plus twice the strict-upper product) in place of the matrix
    basis = LambdaBasis(lam, 1604)
    G = gram(basis, 1601)
    assert np.array_equal(G, G.T)
    for first in (0, 1):
        for m, row in zip(range(first, 1601, 2), _gram_rows(basis, 1601, first)):
            assert np.array_equal(G[m, m:], row)
    rng = np.random.default_rng(13)
    c = rng.standard_normal(1601) + 1j * rng.standard_normal(1601)
    form = float(np.real(np.vdot(c, G @ c)))
    norm, kappa = LambdaExpansion(basis, c).norm_and_condition()
    assert norm == pytest.approx(math.sqrt(form), rel=1e-13)
    assert kappa == pytest.approx(np.abs(c) @ np.abs(G) @ np.abs(c) / form, rel=1e-13)


_GRAM_ENTRIES = ((0, 0), (0, 9), (4, 31), (60, 61), (333, 340), (800, 830),
                 (1000, 1100), (1599, 1600), (1600, 1600))


def _overlaps_mpmath(lam, entries):
    # <m|n>_lam = sqrt(m! n! / (L_m L_n)) sum_j lam^(m+n-2j) / (j! (m-j)! (n-j)!)
    # at 50 digits, its terms by the ratio (m-j)(n-j) / ((j+1) lam^2) and
    # L_n(-lam^2) by the three-term recurrence, for m <= n <= 1600
    with mpmath.workdps(50):
        x = mpmath.mpf(lam) ** 2
        lag = [mpmath.mpf(1), 1 + x]
        for k in range(1, 1600):
            lag.append(((2 * k + 1 + x) * lag[k] - k * lag[k - 1]) / (k + 1))
        out = {}
        for m, n in entries:
            term = mpmath.mpf(lam) ** (m + n) \
                / (mpmath.factorial(m) * mpmath.factorial(n))
            total = term
            for j in range(m):
                term *= mpmath.mpf((m - j) * (n - j)) / ((j + 1) * x)
                total += term
            out[m, n] = float(total * mpmath.sqrt(
                mpmath.factorial(m) * mpmath.factorial(n) / (lag[m] * lag[n])))
        return out


@pytest.mark.parametrize("lam", [-1.3, 3.0, 20.0, 50.0])
def test_gram_rows_match_mpmath_overlap_sum(lam):
    # on entries up to (1600, 1600)
    wanted = {m for m, _ in _GRAM_ENTRIES}
    basis = LambdaBasis(lam, 1600)
    rows = {m: row.copy() for first in (0, 1) for m, row in
            zip(range(first, 1601, 2), _gram_rows(basis, 1601, first)) if m in wanted}
    for (m, n), want in _overlaps_mpmath(lam, _GRAM_ENTRIES).items():
        assert abs(rows[m][n - m] - want) <= 2e-13, (m, n)
        # overlap_analytic's log-space factorial sum, the same entry
        assert abs(overlap_analytic(m, n, basis) - want) <= 1e-12, (m, n)


_EVEN_ENTRIES = ((0, 0), (0, 8), (4, 30), (60, 62), (332, 340), (800, 830),
                 (1000, 1100), (1598, 1600), (1600, 1600))


@pytest.mark.parametrize("lam", [0.3, 2.9, -1.3, 20.0, 50.0])
def test_even_gram_block_is_the_even_rows_of_the_recurrence(lam):
    # the parity-0 rows of gram() bit for bit, and the 50-digit overlap sum
    basis = LambdaBasis(lam, 1600)
    upper, diag = _even_gram_block(basis, 800)
    even = gram(basis, 1601)[::2, ::2]
    assert np.array_equal(diag, np.diag(even))
    assert np.array_equal(upper, np.triu(even, 1))
    for (m, n), want in _overlaps_mpmath(lam, _EVEN_ENTRIES).items():
        got = diag[m // 2] if m == n else upper[m // 2, n // 2]
        assert abs(got - want) <= 1e-12, (m, n)


def _to_lambda_mpmath(v, lam, dps=60):
    # c_n = sqrt(L_n / n!) sum_k (-lam)^k / k! sqrt((n+k)!) v_{n+k}, the
    # entries of diag(sqrt L) e^{-lam a} summed at dps digits; L_n(-lam^2)
    # from the three-term recurrence, the input floats taken exactly
    d = len(v)
    with mpmath.workdps(dps):
        lam, x = mpmath.mpf(lam), mpmath.mpf(lam) ** 2
        lag = [mpmath.mpf(1), 1 + x]
        for n in range(1, d):
            lag.append(((2 * n + 1 + x) * lag[n] - n * lag[n - 1]) / (n + 1))
        fact = [mpmath.mpf(1)]
        for n in range(1, d):
            fact.append(fact[-1] * n)
        taylor = [(-lam) ** k / fact[k] for k in range(d)]
        u = [mpmath.sqrt(fact[j]) * mpmath.mpc(complex(z)) for j, z in enumerate(v)]
        c = [mpmath.sqrt(lag[n] / fact[n]) * mpmath.fdot(taylor[: d - n], u[n:])
             for n in range(d)]
        return np.array([complex(z) for z in c])


_STATE_VECTORS = {
    **{f"squeezed_vacuum xi={xi}": (lambda xi=xi: squeezed_vacuum(xi))
       for xi in (0.3 - 0.35j, 0.6j, 0.8)},
    **{kind: (lambda kind=kind: nonlinear_cs(kind, 1.2 - 0.5j).coeffs)
       for kind in ("f1", "f2", "canonical")},
}


@pytest.mark.parametrize("name", list(_STATE_VECTORS))
@pytest.mark.parametrize("lam", [-3.0, -2.37, 1.27, 2.9])
def test_to_lambda_matches_mpmath(lam, name):
    # the terminating inverse T-operator series against 60 digits, scaled by
    # the largest coefficient; the dense triangular solve it replaced was off
    # by up to 1e70 of that scale here (lam = -3, xi = 0.8, d = 319)
    v = np.asarray(_STATE_VECTORS[name](), dtype=complex)
    got = to_lambda(v, LambdaBasis(lam, len(v)))
    want = _to_lambda_mpmath(v, lam)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("lam, d", [(0.3, 5), (0.3, 30), (0.3, 60),
                                    (0.8, 5), (0.8, 30)])
def test_to_lambda_matches_triangular_solve(lam, d):
    # where E^T is well conditioned, back substitution is a valid oracle; at
    # lam = 0.8 it drifts from 60-digit mpmath by 1.7e-12 (d = 40) and 2.2e-11
    # (d = 60) of the largest coefficient on these vectors, to_lambda by 6e-16
    basis = LambdaBasis(lam, 64)
    rng = np.random.default_rng(d)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    want = solve_triangular(expansion_matrix(basis, d).T, v, lower=False)
    got = to_lambda(v, basis)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    for n in range(0, d, 7):  # and the forward T-operator inverts exactly
        unit = to_lambda(apply_t_operator(n, basis, d), basis)
        assert np.max(np.abs(unit - np.eye(d)[n])) <= 1e-12


def test_to_lambda_overflow_is_a_domain_error():
    # sqrt(L_n(-lam^2)) leaves the double range; no numpy warning escapes
    basis = LambdaBasis(1e100, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            to_lambda(np.ones(8), basis)


def test_lambda_with_overflowing_square_rejected():
    with pytest.raises(ValueError, match="finite square"):
        LambdaBasis(1e200, 8)
    basis = LambdaBasis(-1e150, 8)  # lam^2 = 1e300 still fits
    assert np.all(np.isfinite(basis.log_laguerre))
    assert np.all(np.isfinite(basis.rho))


_PHASE = st.floats(-math.pi, math.pi)


@given(lam=st.floats(-5.0, 5.0), xi=st.one_of(st.just(0.0), st.tuples(
    st.floats(0.0, 0.9), _PHASE)), mu=st.tuples(st.floats(0.0, 3.0), _PHASE),
    log_scale=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
@settings(max_examples=150, deadline=None)
def test_frame_coeffs_conjugation_and_lambda_reflection(lam, xi, mu, log_scale):
    # conjugating (xi, mu, log_scale) conjugates every coefficient, and
    # (lam, mu) -> (-lam, -mu) multiplies c_n by (-1)^n: both bit for bit,
    # on the closed form (xi = 0) and on the g_n recurrence alike
    xi = 0j if xi == 0.0 else xi[0] * complex(math.cos(xi[1]), math.sin(xi[1]))
    mu = mu[0] * complex(math.cos(mu[1]), math.sin(mu[1]))
    scale, N = complex(*log_scale), 40
    basis, mirror = LambdaBasis(lam, N), LambdaBasis(-lam, N)
    c = _frame_coeffs(xi, mu, scale, basis, N)
    assert np.all(np.isfinite(c))
    conj = _frame_coeffs(xi.conjugate(), mu.conjugate(), scale.conjugate(),
                         basis, N)
    assert np.array_equal(conj, c.conjugate())
    sign = np.where(np.arange(N) % 2, -1.0, 1.0)
    assert np.array_equal(_frame_coeffs(xi, -mu, scale, mirror, N), sign * c)


def test_frame_coeffs_overflow_names_the_coefficient():
    # e^{-mu lam} alone passes 1e308 at lam -400, mu 2
    with pytest.raises(DomainError, match=r"coefficient C_\d+ overflows the "
                       r"double range \(ln\|C_\d+\| = "):
        _frame_coeffs(0j, 2.0, 0.0, LambdaBasis(-400.0, 8), 8)
