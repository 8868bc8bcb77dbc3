"""Dense truncated ladder operators and matrix exponentials.

This is the brute-force side of the package: every closed-form expression in
the other modules is validated against matrix arithmetic built here. The same
machinery also powers the operator-form state constructions (displaced and
squeezed vacua), so it is production code, not test-only scaffolding.

Dense matrices only. N stays in the low hundreds, where sparsity buys nothing
and dense keeps the computations obviously correct. scipy.linalg is imported
on first use: most commands never need it, and it dominates import time.
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
    """e^M v by scaling-and-squaring on the dense matrix."""
    from scipy.linalg import expm
    out = expm(np.asarray(M, dtype=complex)) @ np.asarray(v, dtype=complex)
    if not np.all(np.isfinite(out)):
        raise TruncationError("matrix exponential did not converge; "
                              "truncation too small or input ill-conditioned")
    return out


def displacement(alpha: complex, N: int) -> np.ndarray:
    """D(alpha) = expm(alpha a_dag - conj(alpha) a)."""
    from scipy.linalg import expm
    a, a_dag, _ = build_ladders(N)
    return expm(alpha * a_dag - np.conj(alpha) * a)


def squeeze(xi: complex, N: int) -> np.ndarray:
    """expm(xi (a_dag)^2 / 2). Not unitary; acts on the vacuum to produce the
    even squeezed series xi^n sqrt((2n-1)!!/(2n)!!) on |2n>."""
    from scipy.linalg import expm
    _, a_dag, _ = build_ladders(N)
    return expm(0.5 * xi * (a_dag @ a_dag))


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
