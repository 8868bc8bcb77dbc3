"""Dense truncated-operator helpers."""

import math

import numpy as np
import pytest

from lfock.operators import (TruncationError, build_ladders, eigen_residual,
                             expm_apply, number_operator, with_margin)


def test_ladder_entries():
    a, a_dag, adl = build_ladders(8, 0.7)
    assert a[2, 3] == pytest.approx(math.sqrt(3))
    assert np.array_equal(a_dag, a.conj().T)
    assert np.allclose(adl, a_dag + 0.7 * np.eye(8))


def test_build_ladders_rejects_tiny_truncation():
    with pytest.raises(ValueError):
        build_ladders(1)


def test_commutator_truncation_artifact():
    # [a, a^dag] = I except the last diagonal entry, which the cutoff spoils
    N = 12
    a, a_dag, _ = build_ladders(N)
    comm = a @ a_dag - a_dag @ a
    want = np.eye(N, dtype=complex)
    want[-1, -1] = -(N - 1)
    assert np.allclose(comm, want, atol=1e-12)


def test_number_operator_matches_a_dag_a():
    N = 9
    a, a_dag, _ = build_ladders(N)
    num = number_operator(N)
    assert np.allclose(num, np.diag(np.arange(N, dtype=complex)))
    off_horizon = a_dag @ a
    assert np.allclose(num, off_horizon, atol=1e-12)


def test_expm_apply_number_phase():
    N = 6
    num = number_operator(N)
    e1 = np.zeros(N, dtype=complex)
    e1[1] = 1.0
    got = expm_apply(1j * (math.pi / 2) * num, e1)
    assert got[1] == pytest.approx(1j, abs=1e-12)
    assert np.linalg.norm(np.delete(got, 1)) < 1e-12


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_expm_apply_non_finite_generator_is_a_truncation_error():
    with pytest.raises(TruncationError):
        expm_apply(np.full((3, 3), np.nan), np.ones(3))
    with pytest.raises(TruncationError):
        expm_apply(np.diag([0.0, np.inf]), np.ones(2))


def test_displacement_unitary_and_vacuum_action():
    # D(alpha) = e^{alpha a_dag - conj(alpha) a}, applied to the identity
    N = 40
    alpha = 0.8 + 0.3j
    a, a_dag, _ = build_ladders(N)
    D = expm_apply(alpha * a_dag - np.conj(alpha) * a, np.eye(N))
    assert np.allclose(D.conj().T @ D, np.eye(N), atol=1e-10)
    vac = np.zeros(N, dtype=complex)
    vac[0] = 1.0
    got = D @ vac
    n = np.arange(N)
    fact = np.array([math.factorial(k) for k in n], dtype=float)
    want = np.exp(-abs(alpha) ** 2 / 2) * alpha ** n / np.sqrt(fact)
    assert np.allclose(got, want, atol=1e-12)


def _dfact(n: int) -> float:
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def test_squeeze_vacuum_series():
    # exp(xi a^dag^2 / 2)|0> has even coefficients xi^n sqrt((2n-1)!!/(2n)!!)
    N = 30
    xi = 0.3
    _, a_dag, _ = build_ladders(N)
    vac = np.zeros(N, dtype=complex)
    vac[0] = 1.0
    got = expm_apply(0.5 * xi * (a_dag @ a_dag), vac)
    for n in range(N // 2):
        want = xi ** n * math.sqrt(_dfact(2 * n - 1) / _dfact(2 * n))
        assert got[2 * n] == pytest.approx(want, rel=1e-10, abs=1e-12)
    assert np.linalg.norm(got[1::2]) == 0.0


def test_eigen_residual_exact_eigenvector():
    M = np.diag([1.0, 2.0, 3.0]).astype(complex)
    v = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert eigen_residual(M, v, 2.0) == 0.0


def test_eigen_residual_rejects_zero_vector():
    M = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        eigen_residual(M, np.zeros(2, dtype=complex), 1.0)


def test_with_margin_accepts_stable_build():
    def build(N):
        out = np.zeros(N)
        out[0] = 1.0
        return out

    got = with_margin(build, 30)
    assert got.shape == (30,)
    assert got[0] == 1.0


def test_with_margin_flags_cutoff_sensitivity():
    # every component depends on the cutoff, so widening it moves the head
    def build(N):
        return np.full(N, 1.0 / N)

    with pytest.raises(TruncationError):
        with_margin(build, 30)


def _generators(N: int) -> dict:
    a, a_dag, _ = build_ladders(N)
    gens = {f"displace {mu}": mu * a_dag - np.conj(mu) * a
            for mu in (0.6, 2.0, -1.2 + 0.9j, 2j)}
    gens.update({f"squeeze {xi}": 0.5 * xi * (a_dag @ a_dag)
                 for xi in (0.6, -0.45, 0.3 - 0.4j)})
    for lam in (0.5, 1.0):
        adl = a_dag + lam * np.eye(N)
        gens.update({f"deformed squeeze {xi} lam {lam}": 0.5 * xi * (adl @ adl)
                     for xi in (0.6, -0.5 + 0.2j)})
    return gens


@pytest.mark.parametrize("name", sorted(_generators(4)))
def test_expm_apply_matches_scipy_on_the_oracle_generators(name):
    # the generators of the operator routes, at their default truncation
    from scipy.linalg import expm
    N = 200
    M = _generators(N)[name]
    e0 = np.zeros(N, dtype=complex)
    e0[0] = 1.0
    want = expm(M) @ e0
    assert np.linalg.norm(expm_apply(M, e0) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("name", ["displace (-1.2+0.9j)", "squeeze (0.3-0.4j)",
                                  "deformed squeeze 0.6 lam 1.0"])
def test_expm_apply_on_columns_matches_scipy(name):
    # v is the identity, so the result is the dense matrix e^M itself
    from scipy.linalg import expm
    N = 60
    M = _generators(N)[name]
    want = expm(M)
    got = expm_apply(M, np.eye(N))
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
