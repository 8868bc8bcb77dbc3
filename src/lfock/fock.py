"""The deformed Fock basis |n>_lam and its closed-form matrix elements.

The basis vectors are eigenstates of (a_dag + lam) a + 1/2. Each |n>_lam is a
finite superposition of |0>..|n>, normalized but not orthogonal to its
neighbours, with

    |n>_lam = sum_m sqrt(n!) lam^{n-m} / [(n-m)! sqrt(m! L_n)] |m>,

where L_n is laguerre0(n, lam). Everything downstream (coherent and squeezed
constructions, photon statistics) reduces to the overlaps and operator matrix
elements implemented here, all evaluated in log space with sign tracking so
that negative lam and large n stay representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import (LogValue, _laguerre_table, log_factorial_table,
                      logsumexp_positive)


class LambdaBasis:
    """Immutable container for one deformation parameter.

    Holds lam, the tables of log Laguerre values ln L_n and ladder ratios
    rho_n = sqrt(L_{n-1}/L_n) up to max_n, and lazy caches for the expansion
    matrix and the Gram matrix. Cache fills are idempotent and the cached
    arrays are read-only, so the object is observationally immutable and safe
    to share. The matrices live and die with the basis.

    Parameters
    ----------
    lam : float
        Deformation parameter, any finite real.
    max_n : int
        Largest basis index the tables cover. Operations beyond it raise.
    """

    def __init__(self, lam: float, max_n: int = 256):
        if max_n < 1:
            raise ValueError("max_n must be positive")
        if not math.isfinite(lam):
            raise ValueError(f"lam must be finite, got {lam!r}")
        self.lam = float(lam)
        self.max_n = int(max_n)
        self.log_laguerre, self.rho = _laguerre_table(self.lam, self.max_n)
        self.log_laguerre.setflags(write=False)
        self.rho.setflags(write=False)
        self._expansion: np.ndarray | None = None
        self._gram: np.ndarray | None = None

    @property
    def eta(self) -> float:
        """The (0,1] reparametrization 1/(1+lam^2)."""
        return 1.0 / (1.0 + self.lam * self.lam)

    def __repr__(self):
        return f"LambdaBasis(lam={self.lam}, max_n={self.max_n})"

    def _check(self, n: int, what: str = "index"):
        if n < 0:
            raise ValueError(f"{what} must be nonnegative")
        if n > self.max_n:
            raise ValueError(f"{what} {n} beyond basis horizon max_n={self.max_n}")

    def _row(self, n: int) -> np.ndarray:
        """Standard-basis coefficients of |n>_lam (length n+1)."""
        return _expansion_row(n, self.lam, float(self.log_laguerre[n]))


def _expansion_row(n: int, lam: float, log_lag_n: float) -> np.ndarray:
    if lam == 0.0:
        row = np.zeros(n + 1)
        row[n] = 1.0
        return row
    lf = log_factorial_table(n)
    m = np.arange(n + 1)
    logs = 0.5 * lf[n] + (n - m) * math.log(abs(lam)) - lf[n - m] \
        - 0.5 * lf[m] - 0.5 * log_lag_n
    signs = np.where((n - m) % 2 == 0, 1.0, math.copysign(1.0, lam))
    return signs * np.exp(logs)


def lambda_ket(n: int, basis: LambdaBasis, N: int | None = None) -> np.ndarray:
    """Standard-basis vector of |n>_lam, padded with exact zeros to length N.

    Parameters
    ----------
    n : int
        Basis index.
    basis : LambdaBasis
    N : int, optional
        Truncation length, at least n+1. Defaults to n+1.

    Returns
    -------
    (N,) float array with Euclidean norm 1 and support on indices 0..n.
    """
    basis._check(n)
    if N is None:
        N = n + 1
    if n >= N:
        raise ValueError(f"truncation N={N} too small for index n={n}")
    v = np.zeros(N)
    v[: n + 1] = basis._row(n)
    return v


def apply_t_operator(n: int, basis: LambdaBasis, N: int | None = None) -> np.ndarray:
    """e^{lam a}|n> / sqrt(L_n) by the finite exponential series.

    a is nilpotent on |n>, so the series ends after n+1 terms. Must agree with
    lambda_ket componentwise; the two routes share no arithmetic.
    """
    basis._check(n)
    if N is None:
        N = n + 1
    if n >= N:
        raise ValueError(f"truncation N={N} too small for index n={n}")
    v = np.zeros(N)
    term = np.zeros(N)
    term[n] = 1.0
    v[n] = 1.0
    for j in range(1, n + 1):
        # term <- (lam/j) * a * term ; (a w)[i] = sqrt(i+1) w[i+1]
        shifted = np.zeros(N)
        idx = np.arange(n - j + 1)
        shifted[idx] = np.sqrt(idx + 1.0) * term[idx + 1]
        term = (basis.lam / j) * shifted
        v += term
    return v * math.exp(-0.5 * float(basis.log_laguerre[n]))


def _sign_for_parity(lam: float, exponent_parity: int) -> int:
    if lam > 0 or exponent_parity % 2 == 0:
        return 1
    return -1


def overlap_analytic(m: int, n: int, basis: LambdaBasis) -> float:
    """The inner product <m|n>_lam between deformed basis states.

    Evaluates [L_m L_n]^{-1/2} sum_k lam^{2k+m-n} sqrt(n! m!) /
    [k! (n-k)! (m-n+k)!] over all k with nonnegative factorial arguments.
    Symmetric in (m, n); exactly 1 on the diagonal; delta_{mn} at lam = 0.
    """
    basis._check(m)
    basis._check(n)
    if m == n:
        return 1.0
    if basis.lam == 0.0:
        return 0.0
    # The sum is symmetric under (m, n) swap; canonicalize so results are
    # bitwise symmetric too.
    hi, lo = (m, n) if m >= n else (n, m)
    lf = log_factorial_table(hi)
    k = np.arange(lo + 1)
    logs = (2 * k + hi - lo) * math.log(abs(basis.lam)) \
        + 0.5 * (lf[hi] + lf[lo]) - lf[k] - lf[lo - k] - lf[hi - lo + k]
    mag = logsumexp_positive(logs) \
        - 0.5 * float(basis.log_laguerre[hi] + basis.log_laguerre[lo])
    return LogValue(mag, _sign_for_parity(basis.lam, hi - lo)).value()


def ladder_down(n: int, basis: LambdaBasis) -> tuple[float, int]:
    """Coefficient and index in a|n>_lam = coef |n-1>_lam.

    For n = 0 returns the zero-vector marker (0.0, -1) since a|0>_lam = 0.
    """
    basis._check(n)
    if n == 0:
        return 0.0, -1
    return math.sqrt(n) * float(basis.rho[n]), n - 1


def ladder_up(n: int, basis: LambdaBasis) -> tuple[float, int]:
    """Coefficient and index in (a_dag + lam)|n>_lam = coef |n+1>_lam."""
    basis._check(n)
    basis._check(n + 1, "raised index")
    return math.sqrt(n + 1.0) / float(basis.rho[n + 1]), n + 1


def iterated_lowering_norm(n: int, basis: LambdaBasis) -> float:
    """The scalar sqrt(n!/L_n) in a^n |n>_lam = sqrt(n!/L_n) |0>_lam."""
    basis._check(n)
    lf = log_factorial_table(n)
    return math.exp(0.5 * (float(lf[n]) - float(basis.log_laguerre[n])))


def lowering_scalar(n: int, k: int, basis: LambdaBasis) -> float:
    """Scalar s with a^k |n>_lam = s |n-k>_lam (0 if k > n)."""
    basis._check(n)
    if k > n:
        return 0.0
    lf = log_factorial_table(n)
    lL = basis.log_laguerre
    return math.exp(0.5 * (float(lf[n] - lf[n - k])
                           + float(lL[n - k] - lL[n])))


def raising_scalar(n: int, k: int, basis: LambdaBasis) -> float:
    """Scalar u with (a_dag + lam)^k |n>_lam = u |n+k>_lam."""
    basis._check(n + k, "raised index")
    lf = log_factorial_table(n + k)
    lL = basis.log_laguerre
    return math.exp(0.5 * (float(lf[n + k] - lf[n])
                           + float(lL[n + k] - lL[n])))


def matel_creation_power(m: int, n: int, k: int, basis: LambdaBasis) -> float:
    """<m| (a_dag + lam)^k |n> between deformed basis states."""
    return matel_normal_ordered(m, n, k, 0, basis)


def matel_annihilation_power(m: int, n: int, k: int, basis: LambdaBasis) -> float:
    """<m| a^k |n> between deformed basis states; 0 when k > n."""
    return matel_normal_ordered(m, n, 0, k, basis)


def matel_normal_ordered(m: int, n: int, r: int, k: int, basis: LambdaBasis) -> float:
    """<m| (a_dag + lam)^r a^k |n> between deformed basis states.

    Closed form: [(n-k+r)!/(n-k)!] sqrt(n! m!/(L_m L_n)) *
    sum_l lam^{2l+m-n+k-r} / [l! (n-k+r-l)! (m-n+k-r+l)!],
    l over max(0, n-k+r-m) <= l <= n-k+r; returns 0 when k > n. At k = 0 it
    is matel_creation_power, at r = 0 matel_annihilation_power.
    """
    basis._check(m)
    basis._check(n)
    if k > n:
        return 0.0
    basis._check(n - k + r, "raised index")
    top = n - k + r
    if basis.lam == 0.0:
        if m != top:
            return 0.0
        lf = log_factorial_table(max(n, top))
        return math.exp(0.5 * float(lf[n] - lf[n - k])
                        + 0.5 * float(lf[top] - lf[n - k]))
    lf = log_factorial_table(max(m, n, top))
    l = np.arange(max(0, top - m), top + 1)
    logs = (2 * l + m - top) * math.log(abs(basis.lam)) \
        - lf[l] - lf[top - l] - lf[m - top + l]
    mag = logsumexp_positive(logs) + float(lf[top] - lf[n - k]) \
        + 0.5 * (float(lf[n] + lf[m])
                 - float(basis.log_laguerre[n] + basis.log_laguerre[m]))
    return LogValue(mag, _sign_for_parity(basis.lam, m - top)).value()


def expansion_matrix(basis: LambdaBasis, size: int) -> np.ndarray:
    """Lower-triangular E with E[n, m] the |m> coefficient of |n>_lam.

    Row n is the lambda_ket(n) expansion; the diagonal exp(-log L_n / 2) is
    strictly positive, so E is an exact triangular factor of the Gram matrix.
    Returns a read-only view of a matrix cached on the basis, which grows by
    the missing rows when a larger size is asked for.
    """
    basis._check(size - 1)
    built = basis._expansion
    done = 0 if built is None else built.shape[0]
    if done < size:
        E = np.zeros((size, size))
        if built is not None:
            E[:done, :done] = built
        for n in range(done, size):
            E[n, : n + 1] = basis._row(n)
        E.setflags(write=False)
        basis._expansion = built = E
    return built[:size, :size]


def gram(basis: LambdaBasis, size: int) -> np.ndarray:
    """Gram matrix G[m, n] = <m|n>_lamlam, built by the ladder recurrence.

    Row 0 is the vacuum overlap lam^n / sqrt(n! L_n); resolving <m|a|n> two
    ways (lowering to the right, raising to the left) gives

        G[m+1, n] = rho_{m+1} (sqrt(n) rho_n G[m, n-1] + lam G[m, n]) / sqrt(m+1)

    with rho_n = sqrt(L_{n-1}/L_n). Entries are inner products of unit
    vectors, bounded by 1, so the recursion cannot overflow. Must agree with
    overlap_analytic entrywise; the output is symmetrized (raw asymmetry is
    at roundoff level). Returns a read-only view of the largest matrix built
    so far, which is cached on the basis.
    """
    basis._check(size - 1)
    built = basis._gram
    if built is None or built.shape[0] < size:
        lam = basis.lam
        if lam == 0.0:
            G = np.eye(size)
        else:
            lf = log_factorial_table(size - 1)[: size]
            lL = basis.log_laguerre[:size]
            rho = basis.rho[:size]
            n = np.arange(size)
            sqrtn = np.sqrt(n.astype(float))
            signs = np.where(n % 2 == 0, 1.0, math.copysign(1.0, lam))
            G = np.empty((size, size))
            G[0] = signs * np.exp(n * math.log(abs(lam))
                                  - 0.5 * (lf + lL))
            for m in range(size - 1):
                prev = G[m]
                nxt = lam * prev
                nxt[1:] += sqrtn[1:] * rho[1:] * prev[:-1]
                G[m + 1] = nxt * (rho[m + 1] / math.sqrt(m + 1.0))
            for m in range(1, size):  # G <- (G + G^T)/2, in place
                G[m, :m] = G[:m, m] = 0.5 * (G[m, :m] + G[:m, m])
        G.setflags(write=False)
        basis._gram = built = G
    return built[:size, :size]


def _matvec(M: np.ndarray, c: np.ndarray) -> np.ndarray:
    """M @ c for a real matrix M and a complex vector c.

    Two real products, so M is never cast (copied) to complex.
    """
    return M @ c.real + 1j * (M @ c.imag)


def gram_coefficient(basis: LambdaBasis, size: int) -> np.ndarray:
    """Gram matrix from raw coefficient dot products (cross-check route)."""
    E = expansion_matrix(basis, size)
    return E @ E.T


def to_lambda(v: np.ndarray, basis: LambdaBasis) -> np.ndarray:
    """Coefficients over {|n>_lam} for a standard-basis vector v.

    Solves the triangular system E^T c = v; exact inverse of
    LambdaExpansion.to_standard for vectors inside the horizon.
    """
    from scipy.linalg import solve_triangular
    v = np.asarray(v, dtype=complex)
    d = v.shape[0]
    E = expansion_matrix(basis, d)
    return solve_triangular(E.T, v, lower=False)


@dataclass(frozen=True)
class LambdaExpansion:
    """A vector written over the deformed basis: sum_n coeffs[n] |n>_lam."""

    basis: LambdaBasis
    coeffs: np.ndarray = field(repr=False)

    @property
    def support(self) -> int:
        return int(self.coeffs.shape[0])

    def to_standard(self, N: int | None = None) -> np.ndarray:
        """Standard-basis image, padded with zeros to length N."""
        d = self.support
        if N is None:
            N = d
        if N < d:
            raise ValueError("truncation shorter than the expansion support")
        E = expansion_matrix(self.basis, d)
        out = np.zeros(N, dtype=complex)
        out[:d] = _matvec(E.T, np.asarray(self.coeffs, dtype=complex))
        return out

    def norm(self) -> float:
        """Norm through the analytic Gram quadratic form."""
        G = gram(self.basis, self.support)
        c = np.asarray(self.coeffs, dtype=complex)
        return math.sqrt(max(float(np.real(np.vdot(c, _matvec(G, c)))), 0.0))
