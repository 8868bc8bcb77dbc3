"""Dense truncated ladder operators and matrix exponentials.

This is the brute-force side of the package: every closed-form expression in
the other modules is validated against matrix arithmetic built here. The
operator-form states built on it (states.displaced_form and
states.squeezed_operator_form) are oracles too: only `verify` and the tests
reach this machinery, and no figure or state dump runs through it. Its
TruncationError is the package's error for a tolerance that a truncation
cannot reach.

Dense matrices only. N stays in the low hundreds, where sparsity buys nothing
and dense keeps the computations obviously correct. The exponential is a
numpy Taylor action on the dense matrix, so no route here needs scipy.
"""

from __future__ import annotations

import math

import numpy as np

# with_margin's second truncation N + _MARGIN and its head tolerance
_MARGIN = 20
_MARGIN_TOL = 1e-9


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


def eigen_residual(M: np.ndarray, v: np.ndarray, z: complex) -> float:
    """|| M v - z v || / || v || in the Euclidean norm (standard basis)."""
    v = np.asarray(v, dtype=complex)
    den = float(np.linalg.norm(v))
    if den == 0.0:
        raise ValueError("residual undefined for the zero vector")
    return float(np.linalg.norm(M @ v - z * v)) / den


def with_margin(build, N: int) -> np.ndarray:
    """Truncation self-check: run build at N and N + 20, demand agreement.

    build(dim) must return a vector of length dim. The first N - 20
    components of the two runs must agree to 1e-9, otherwise the tail was not
    negligible and a TruncationError is raised. Returns the length-N result.
    """
    v1 = np.asarray(build(N), dtype=complex)
    v2 = np.asarray(build(N + _MARGIN), dtype=complex)
    head = max(N - _MARGIN, 0)
    err = float(np.max(np.abs(v1[:head] - v2[:head]))) if head else 0.0
    if err > _MARGIN_TOL:
        raise TruncationError(f"truncation N={N} unstable: head disagreement "
                              f"{err:.3e} > {_MARGIN_TOL:.1e}")
    return v1
