"""Dense truncated ladder operators and matrix exponentials.

This is the brute-force side of the package: every closed-form expression in
the other modules is validated against matrix arithmetic built here. The same
machinery also powers the operator-form state constructions (displaced and
squeezed vacua), so it is production code, not test-only scaffolding.

Dense matrices only. N stays in the low hundreds, where sparsity buys nothing
and dense keeps the computations obviously correct. The exponential is a
numpy Taylor action on the dense matrix, so no route here needs scipy.
"""

from __future__ import annotations

import math

import numpy as np


class TruncationError(RuntimeError):
    """Raised when results at truncation N and N + margin disagree."""


def build_ladders(N: int, lam: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated ladder matrices (a, a_dag, a_dag + lam * I).

    Parameters
    ----------
    N : int
        Truncation dimension, at least 2.
    lam : float
        Deformation parameter of the shifted creation operator.

    Returns
    -------
    (a, a_dag, a_dag_lambda) : complex (N, N) arrays
        (a)_{m,n} = sqrt(n) delta_{m,n-1}; a_dag is its transpose;
        a_dag_lambda = a_dag + lam * identity.
    """
    if N < 2:
        raise ValueError("truncation must be at least 2")
    a = np.zeros((N, N), dtype=complex)
    ns = np.arange(1, N)
    a[ns - 1, ns] = np.sqrt(ns)
    a_dag = a.conj().T.copy()
    return a, a_dag, a_dag + lam * np.eye(N)


def number_operator(N: int) -> np.ndarray:
    """Diagonal a_dag a on the truncated space."""
    return np.diag(np.arange(N, dtype=complex))


def expm_apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """e^M v, v a vector or columns: s = ceil(||M||_1) steps of the Taylor
    series of e^{M/s}, each ended once two consecutive terms fall below
    eps ||w|| (the action of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011)."""
    norm = float(np.linalg.norm(M, 1))
    s = max(1, math.ceil(norm)) if math.isfinite(norm) else 1  # NaN: caught below
    A = np.asarray(M, dtype=complex) / s
    w = np.array(v, dtype=complex)
    for _ in range(s):
        term, size = w, math.inf
        for k in range(1, 60):  # ||A||_1 <= 1 keeps the k-th term below 1/k!
            term = (A @ term) / k
            w += term
            last, size = size, float(np.linalg.norm(term))
            if max(last, size) <= np.finfo(float).eps * float(np.linalg.norm(w)):
                break
    if not np.all(np.isfinite(w)):
        raise TruncationError("matrix exponential did not converge; "
                              "truncation too small or input ill-conditioned")
    return w


def displacement(alpha: complex, N: int) -> np.ndarray:
    """D(alpha) = expm(alpha a_dag - conj(alpha) a)."""
    a, a_dag, _ = build_ladders(N)
    return expm_apply(alpha * a_dag - np.conj(alpha) * a, np.eye(N))


def squeeze(xi: complex, N: int) -> np.ndarray:
    """expm(xi (a_dag)^2 / 2). Not unitary; acts on the vacuum to produce the
    even squeezed series xi^n sqrt((2n-1)!!/(2n)!!) on |2n>."""
    _, a_dag, _ = build_ladders(N)
    return expm_apply(0.5 * xi * (a_dag @ a_dag), np.eye(N))


def eigen_residual(M: np.ndarray, v: np.ndarray, z: complex,
                   gram: np.ndarray | None = None) -> float:
    """|| M v - z v || / || v || in the basis-appropriate norm.

    With gram=None the norm is Euclidean (standard basis). For coefficient
    vectors over a non-orthogonal basis pass the Gram matrix; the norm is then
    sqrt(w_dag G w).
    """
    v = np.asarray(v, dtype=complex)
    w = M @ v - z * v
    if gram is None:
        den = float(np.linalg.norm(v))
        num = float(np.linalg.norm(w))
    else:
        den = math.sqrt(max(float(np.real(np.vdot(v, gram @ v))), 0.0))
        num = math.sqrt(max(float(np.real(np.vdot(w, gram @ w))), 0.0))
    if den == 0.0:
        raise ValueError("residual undefined for the zero vector")
    return num / den


def with_margin(build, N: int, margin: int = 20, tol: float = 1e-9) -> np.ndarray:
    """Truncation self-check: run build at N and N + margin, demand agreement.

    build(dim) must return a vector of length dim. The first N - margin
    components of the two runs must agree to tol, otherwise the tail was not
    negligible and a TruncationError is raised. Returns the length-N result.
    """
    v1 = np.asarray(build(N), dtype=complex)
    v2 = np.asarray(build(N + margin), dtype=complex)
    head = max(N - margin, 0)
    err = float(np.max(np.abs(v1[:head] - v2[:head]))) if head else 0.0
    if err > tol:
        raise TruncationError(
            f"truncation N={N} unstable: head disagreement {err:.3e} > {tol:.1e}")
    return v1
