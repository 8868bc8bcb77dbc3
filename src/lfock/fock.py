"""The deformed Fock basis |n>_lam and its closed-form matrix elements.

The basis vectors are eigenstates of (a_dag + lam) a + 1/2. Each |n>_lam is a
finite superposition of |0>..|n>, normalized but not orthogonal to its
neighbours, with

    |n>_lam = sum_m sqrt(n!) lam^{n-m} / [(n-m)! sqrt(m! L_n)] |m>,

where L_n is laguerre0(n, lam). That is the paper's operator form
|n>_lam = e^{lam a}|n> / sqrt(L_n), so a standard vector v has the coefficients
diag(sqrt L_n) e^{-lam a} v (to_lambda). Everything downstream (coherent and
squeezed constructions, photon statistics) reduces to the overlaps and
operator matrix elements here, in log space with sign tracking so that
negative lam and large n stay representable, and to the Gaussian vectors
g(xi, mu) = e^{xi a_dag^2/2 + mu a_dag}|0> of both state families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import (LogValue, _laguerre_table, log_factorial_table,
                      logsumexp_positive)


class DomainError(ValueError):
    """A parameter lies outside the domain where a construction converges."""

    def __init__(self, message: str, radius: float | None = None):
        super().__init__(message)
        self.radius = radius


class LambdaBasis:
    """Immutable container for one deformation parameter.

    Holds lam, the tables of log Laguerre values ln L_n and ladder ratios
    rho_n = sqrt(L_{n-1}/L_n) up to max_n, and a lazy cache for the Gram
    matrix. Cache fills are idempotent and the cached array is read-only, so
    the object is observationally immutable and safe to share. The matrix
    lives and dies with the basis.

    Parameters
    ----------
    lam : float
        Deformation parameter, any real whose square is finite.
    max_n : int
        Largest basis index the tables cover. Operations beyond it raise.
    """

    def __init__(self, lam: float, max_n: int = 256):
        if max_n < 1:
            raise ValueError("max_n must be positive")
        if not math.isfinite(lam * lam):
            raise ValueError(f"lam must be finite with a finite square, got {lam!r}")
        self.lam = float(lam)
        self.max_n = int(max_n)
        self.log_laguerre, self.rho = _laguerre_table(self.lam, self.max_n)
        self.log_laguerre.setflags(write=False)
        self.rho.setflags(write=False)
        self._gram: np.ndarray | None = None

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
    v[n] = 1.0
    return _exp_lowering(basis.lam, v) * math.exp(-0.5 * float(basis.log_laguerre[n]))


def _exp_lowering(mu: float, v: np.ndarray) -> np.ndarray:
    """e^{mu a} v = sum_k mu^k/k! a^k v, exact: with (a w)_i = sqrt(i+1) w_{i+1}
    each term is one entry shorter, and the sum stops at the first term that
    is exactly zero (shifted out or underflowed). mu = +-lam: T and T^-1."""
    out = np.array(v, dtype=np.result_type(v, float))
    root = np.sqrt(np.arange(1.0, out.shape[0]))
    term, k = out, 1
    while term.any():
        term = (mu / k) * (root[: term.shape[0] - 1] * term[1:])
        out[: term.shape[0]] += term
        k += 1
    return out


def _gaussian_amplitudes(xi, mu, M: int) -> tuple[np.ndarray, np.ndarray]:
    """g_m(xi, mu) for m < M, one column per entry of the xi array.

    g(xi, mu) = e^{xi a_dag^2/2 + mu a_dag}|0> obeys a g = (mu + xi a_dag) g,
    i.e. sqrt(m+1) g_{m+1} = mu g_m + xi sqrt(m) g_{m-1} with g_0 = 1: the
    Hermite recurrence of DLMF 18.9 in the form of displaced squeezed states
    (Yuen, Phys. Rev. A 13, 2226 (1976)). Every few steps the last two rows
    are rescaled by a power of two, exactly, so a large |mu| cannot overflow;
    only entries some 300 orders below g_0 = 1 can underflow. Returns
    (mant, expo) with g_m = mant[m] * 2**expo[m].
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    mu = np.broadcast_to(np.asarray(mu, dtype=complex), xi.shape)
    mant = np.zeros((M, xi.size), dtype=complex)
    expo = np.zeros((M, xi.size), dtype=np.int64)
    mant[0] = 1.0
    root = np.sqrt(np.arange(M, dtype=float))
    # g_m = (mu/sqrt m) g_{m-1} + xi sqrt((m-1)/m) g_{m-2}
    A = mu[None, :] / root[1:, None]
    B = xi[None, :] * (root[:-1] / root[1:])[:, None]
    # |g| grows at most by (|mu| + 1) per step; rescale before 2^900
    grow = math.log2(2.0 + float(np.max(np.abs(mu), initial=0.0)))
    every = int(min(32.0, max(1.0, 900.0 // grow)))
    e = np.zeros(xi.size, dtype=np.int64)
    done = 0
    rows, A, B = list(mant), list(A), list(B)  # row views: no indexing per step
    tmp = np.empty(xi.size, dtype=complex)
    for m in range(1, M):
        np.multiply(A[m - 1], rows[m - 1], out=rows[m])
        if m > 1:
            np.multiply(B[m - 1], rows[m - 2], out=tmp)
            rows[m] += tmp
        if m % every == 0:
            expo[done: m - 1] = e
            _, f = np.frexp(np.maximum(np.abs(mant[m - 1]), np.abs(mant[m])))
            mant[m - 1: m + 1] *= np.ldexp(1.0, -f)
            e += f
            done = m - 1
    expo[done:] = e
    return mant, expo


def _gaussian_log_norm(xi, mu):
    """ln ||g(xi, mu)||^2 = -ln(1-|xi|^2)/2 + (|mu|^2 + Re(conj(xi) mu^2))/(1-|xi|^2).

    Elementwise over complex scalars or arrays; finite for every |xi| < 1 and
    every mu.
    """
    x2 = xi.real ** 2 + xi.imag ** 2
    return -0.5 * np.log1p(-x2) \
        + (mu.real ** 2 + mu.imag ** 2 + (xi.conjugate() * mu * mu).real) / (1.0 - x2)


def _gaussian_moments(xi, mu):
    """Standard-basis moments of g(xi, mu)/||g||, elementwise over complex
    scalars or arrays.

    Returns (<a>, n_s, s, Var n) with <a> = (mu + xi conj(mu))/(1-|xi|^2),
    n_s = <b_dag b> = |xi|^2/(1-|xi|^2) and s = <b b> = xi/(1-|xi|^2) for
    b = a - <a>, and Var n = |<a>|^2 (2 n_s + 1) + 2 Re(conj(<a>)^2 s) + |s|^2
    + n_s^2 + n_s; the mean is <n> = |<a>|^2 + n_s.
    """
    x2 = xi.real ** 2 + xi.imag ** 2
    a = (mu + xi * mu.conjugate()) / (1.0 - x2)
    ns = x2 / (1.0 - x2)
    s = xi / (1.0 - x2)
    a2 = a.real ** 2 + a.imag ** 2
    var = a2 * (2.0 * ns + 1.0) + 2.0 * (a.conjugate() ** 2 * s).real \
        + (s.real ** 2 + s.imag ** 2) + ns * ns + ns
    return a, ns, s, var


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
    An oracle for the T-operator routes (to_lambda, to_standard): built fresh
    on each call and returned read-only.
    """
    basis._check(size - 1)
    E = np.zeros((size, size))
    for n in range(size):
        E[n, : n + 1] = basis._row(n)
    E.setflags(write=False)
    return E


def _gram_rows(basis: LambdaBasis, size: int):
    """Yield the rows G[m, :size], m < size, of the ladder recurrence.

    Row 0 is the vacuum overlap lam^n / sqrt(n! L_n); resolving <m|a|n> two
    ways (lowering to the right, raising to the left) gives

        G[m+1, n] = rho_{m+1} (sqrt(n) rho_n G[m, n-1] + lam G[m, n]) / sqrt(m+1)

    with rho_n = sqrt(L_{n-1}/L_n). Entries are inner products of unit
    vectors, bounded by 1, so the recursion cannot overflow. Rows come
    unsymmetrized (the raw asymmetry is at roundoff level), one at a time.
    """
    lam = basis.lam
    if lam == 0.0:
        for m in range(size):
            row = np.zeros(size)
            row[m] = 1.0
            yield row
        return
    lf = log_factorial_table(size - 1)[: size]
    lL = basis.log_laguerre[:size]
    rho = basis.rho[:size]
    n = np.arange(size)
    shift = np.sqrt(n[1:].astype(float)) * rho[1:]
    signs = np.where(n % 2 == 0, 1.0, math.copysign(1.0, lam))
    row = signs * np.exp(n * math.log(abs(lam)) - 0.5 * (lf + lL))
    yield row
    for m in range(size - 1):
        nxt = lam * row
        nxt[1:] += shift * row[:-1]
        row = nxt * (rho[m + 1] / math.sqrt(m + 1.0))
        yield row


def _gram_block(basis: LambdaBasis, size: int, step: int = 1) -> np.ndarray:
    """G[m, n] on every step-th index m, n < size: one pass of _gram_rows,
    then G <- (G + G^T)/2 in place pair by pair, so a block (step 2: the guard
    scan's even block) holds the bits of the full matrix in its own size."""
    G = np.empty((len(range(0, size, step)),) * 2)
    for m, row in enumerate(_gram_rows(basis, size)):
        if m % step == 0:
            G[m // step] = row[::step]
    for m in range(1, G.shape[0]):
        G[m, :m] = G[:m, m] = 0.5 * (G[m, :m] + G[:m, m])
    return G


def gram(basis: LambdaBasis, size: int) -> np.ndarray:
    """Gram matrix G[m, n] = <m|n>_lamlam, built by the ladder recurrence.

    The rows of _gram_rows, symmetrized (_gram_block). Must agree with
    overlap_analytic entrywise. Returns a read-only view of the largest
    matrix built so far, which is cached on the basis.
    """
    basis._check(size - 1)
    built = basis._gram
    if built is None or built.shape[0] < size:
        G = _gram_block(basis, size)
        G.setflags(write=False)
        basis._gram = built = G
    return built[:size, :size]


def _cancels(kappa: float) -> bool:
    """Whether a sum with condition number kappa (sum of |terms| over |sum|)
    can lose more than 1e-12 of its value to rounding."""
    return kappa * np.finfo(float).eps > 1e-12


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

    The paper's T-operator form |n>_lam = e^{lam a}|n> / sqrt(L_n) inverts to
    c = diag(sqrt L_n) e^{-lam a} v, a terminating series in O(d) memory, the
    exact inverse of LambdaExpansion.to_standard. Raises
    DomainError when a coefficient leaves the double range.
    """
    v = np.asarray(v, dtype=complex)
    basis._check(v.shape[0] - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.exp(0.5 * basis.log_laguerre[: v.shape[0]]) * _exp_lowering(-basis.lam, v)
    if not np.all(np.isfinite(c)):
        raise DomainError(f"lambda-frame coefficients overflow at lam={basis.lam:g}")
    return c


@dataclass(frozen=True)
class LambdaExpansion:
    """A vector written over the deformed basis: sum_n coeffs[n] |n>_lam."""

    basis: LambdaBasis
    coeffs: np.ndarray = field(repr=False)

    @property
    def support(self) -> int:
        return int(self.coeffs.shape[0])

    def to_standard(self, N: int | None = None) -> np.ndarray:
        """T-operator image e^{lam a} diag(L^{-1/2}) c, zero-padded to length N.

        Raises DomainError where that sum cancels past 1e-12 (its condition
        number times eps), as the truncated squeezed series does in its norm.
        """
        d = self.support
        if N is None:
            N = d
        if N < d:
            raise ValueError("truncation shorter than the expansion support")
        basis = self.basis
        basis._check(d - 1)
        scale = np.exp(-0.5 * basis.log_laguerre[:d])
        image = _exp_lowering(basis.lam, scale * self.coeffs)
        # the e^{lam a} sum cancels to about kappa eps, with kappa the norm
        # of the image of |c| (every term added with one sign) relative to it
        size = float(np.linalg.norm(image))
        kappa = float(np.linalg.norm(_exp_lowering(
            abs(basis.lam), scale * np.abs(self.coeffs)))) / size if size else 1.0
        if _cancels(kappa):
            raise DomainError(f"the T-operator image of the series cancels "
                              f"(condition number {kappa:.3g})")
        out = np.zeros(N, dtype=complex)
        out[:d] = image
        return out

    def norm(self) -> float:
        """Norm through the Gram quadratic form c^H G c (norm_and_condition)."""
        return self.norm_and_condition()[0]

    def norm_and_condition(self) -> tuple[float, float]:
        """sqrt(c^H G c) and its condition number kappa = |c|^T |G| |c| / c^H G c,
        streamed row by row.

        Each row of the ladder recurrence is used once and dropped, so the
        memory is O(d), not the (d x d) Gram matrix. Over an alternating
        series the form cancels to a relative error of about kappa eps.
        """
        self.basis._check(self.support - 1)
        c = np.asarray(self.coeffs, dtype=complex)
        mag = np.abs(c)
        total = bound = 0.0
        for cm, row in zip(c, _gram_rows(self.basis, self.support)):
            if cm != 0:
                total += float(np.real(np.conj(cm) * _matvec(row, c)))
                bound += abs(cm) * float(np.abs(row) @ mag)
        return math.sqrt(max(total, 0.0)), bound / total if total > 0 else math.inf
