"""The deformed Fock basis |n>_lam, its Gram rows and the Gaussian kernel.

The basis vectors are eigenstates of (a_dag + lam) a + 1/2. Each |n>_lam is a
finite superposition of |0>..|n>, normalized but not orthogonal to its
neighbours, with

    |n>_lam = sum_m sqrt(n!) lam^{n-m} / [(n-m)! sqrt(m! L_n)] |m>,

where L_n is the Laguerre value L_n^{(0)}(-lam^2), tabulated as ln L_n on the
basis. That is the paper's operator form |n>_lam = e^{lam a}|n> / sqrt(L_n),
so a standard vector v has the coefficients diag(sqrt L_n) e^{-lam a} v
(to_lambda; an exact state's own are _frame_coeffs). Everything downstream
(coherent and squeezed constructions, photon statistics) reduces to the
Laguerre table, the ladder ratios rho_n, the Gram rows of one ladder
recurrence, and the Gaussian vectors g(xi, mu) = e^{xi a_dag^2/2 + mu a_dag}|0>
of both state families, in log space with sign tracking so that negative lam
and large n stay representable. The closed-form
overlaps, ladder scalars and matrix elements these are checked against live
in the oracle module operators.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .specfun import _laguerre_table, log_factorial_table

_LOG_DBL_MAX = math.log(np.finfo(float).max)


class DomainError(ValueError):
    """A parameter lies outside the domain where a construction converges."""

    def __init__(self, message: str, radius: float | None = None):
        super().__init__(message)
        self.radius = radius


class TruncationError(RuntimeError):
    """A tolerance that the truncation or the basis horizon cannot reach."""


def _check_truncation(n: int, largest: int) -> None:
    """Refuse an explicit truncation outside 1..largest, naming both."""
    if n < 1:
        raise ValueError("truncation must be positive")
    if n > largest:
        raise ValueError(f"truncation {n} beyond the basis horizon "
                         f"(largest accepted {largest})")


def _warn(message: str) -> None:
    """The one `lfock: warning:` line, for the sweeps and the state dumps."""
    print(f"lfock: warning: {message}", file=sys.stderr)


class LambdaBasis:
    """Immutable container for one deformation parameter.

    Holds lam and the read-only tables of log Laguerre values ln L_n and
    ladder ratios rho_n = sqrt(L_{n-1}/L_n) up to max_n, so the object is
    immutable and safe to share.

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

    def __repr__(self):
        return f"LambdaBasis(lam={self.lam}, max_n={self.max_n})"

    def _check(self, n, what: str = "index"):
        """Refuse an index, or the extremes of an index array, outside 0..max_n."""
        lo, hi = (n, n) if isinstance(n, (int, np.integer)) else (n.min(), n.max())
        if lo < 0:
            raise ValueError(f"{what} must be nonnegative")
        if hi > self.max_n:
            raise ValueError(f"{what} {hi} beyond basis horizon max_n={self.max_n}")

    def _row(self, n: int) -> np.ndarray:
        """Standard-basis coefficients of |n>_lam (length n+1)."""
        if self.lam == 0.0:
            row = np.zeros(n + 1)
            row[n] = 1.0
            return row
        lf = log_factorial_table(n)
        m = np.arange(n + 1)
        logs = 0.5 * lf[n] + (n - m) * math.log(abs(self.lam)) - lf[n - m] \
            - 0.5 * lf[m] - 0.5 * float(self.log_laguerre[n])
        signs = np.where((n - m) % 2 == 0, 1.0, math.copysign(1.0, self.lam))
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


def _ladder(v: np.ndarray, lam: float | None = None) -> np.ndarray:
    """a v, or (a_dag + lam) v when lam is given, truncated to len(v), in O(N)."""
    root = np.sqrt(np.arange(1.0, v.shape[0]))
    out = np.zeros_like(v)
    if lam is None:
        out[:-1] = root * v[1:]
    else:
        out[1:] = root * v[:-1]
        out += lam * v
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
    mant = np.empty((M, xi.size), dtype=complex)
    mant[0] = 1.0
    expo = np.empty((M, xi.size), dtype=np.int64)
    # |g| grows at most by (|mu| + 1) per step; rescale before 2^900
    grow = math.log2(2.0 + float(np.max(np.abs(mu), initial=0.0)))
    every = int(min(32.0, max(1.0, 900.0 // grow)))
    e = np.zeros(xi.size, dtype=np.int64)
    done = 0  # rows from done on carry the running exponent e
    tmp = np.empty(xi.size, dtype=complex)
    root = np.sqrt(np.arange(M + 64, dtype=float))
    rows = list(mant)
    for lo in range(1, M, 64):
        # g_m = (mu/sqrt m) g_{m-1} + xi sqrt((m-1)/m) g_{m-2}, from row
        # views of coefficients built 64 rows at a time, small beside mant
        A = list(mu[None, :] / root[lo: lo + 64, None])
        B = list(xi[None, :] * (root[lo - 1: lo + 63] / root[lo: lo + 64])[:, None])
        for m in range(lo, min(lo + 64, M)):
            np.multiply(A[m - lo], rows[m - 1], out=rows[m])
            if m > 1:
                np.multiply(B[m - lo], rows[m - 2], out=tmp)
                rows[m] += tmp
            if m % every == 0:
                expo[done: m - 1] = e
                f = np.maximum(np.frexp(np.maximum(np.abs(mant[m - 1]), np.abs(
                    mant[m])))[1], -1000)  # 2^-f finite at subnormal rows
                mant[m - 1: m + 1] *= np.ldexp(1.0, -f)
                e += f
                done = m - 1
    expo[done:] = e
    return mant, expo


def _frame_coeffs(xi, mu, log_scale, basis: LambdaBasis, N: int) -> np.ndarray:
    """The first N frame coefficients C_n = sqrt(L_n) (e^{-lam a} psi)_n of
    psi = e^{log_scale} g(xi, mu): e^{s a} g(xi, mu) = e^{xi s^2/2 + mu s}
    g(xi, mu + xi s) gives e^{log_scale + xi lam^2/2 - mu lam} sqrt(L_n)
    g_n(xi, nu), nu = mu - xi lam, with no cancelling sum. ln|g_n| and its
    phase are closed-form at xi = 0 != nu, else from _gaussian_amplitudes;
    the largest log is checked against the double range (DomainError naming
    C_n) before the one exponential."""
    lam = basis.lam
    lead = log_scale + 0.5 * xi * lam * lam - mu * lam
    nu = mu - xi * lam
    if xi == 0 and nu:  # g_n = nu^n/sqrt(n!); the vacuum takes the recurrence
        logs = lead.real + np.arange(N) * math.log(abs(nu)) \
            + 0.5 * (basis.log_laguerre[:N] - log_factorial_table(N - 1))
        phases = np.full(N, nu / abs(nu))
        phases[0] = np.exp(1j * lead.imag)
        np.cumprod(phases, out=phases)
    else:
        mant, expo = _gaussian_amplitudes(xi, nu, N)
        g, phases = mant[:, 0], np.zeros(N, dtype=complex)
        mag = np.abs(g)
        with np.errstate(divide="ignore"):  # ln 0 = -inf: C_n = 0
            logs = lead.real + (np.log(mag) + math.log(2.0) * expo[:, 0]
                                + 0.5 * basis.log_laguerre[:N])
        # g / |g| part by part: a complex quotient overflows at subnormal |g|
        np.divide(g.real, mag, out=phases.real, where=mag > 0)
        np.divide(g.imag, mag, out=phases.imag, where=mag > 0)
        phases *= np.exp(1j * lead.imag)
    top = int(np.argmax(logs))
    if logs[top] > _LOG_DBL_MAX:
        raise DomainError(f"coefficient C_{top} overflows the double range "
                          f"(ln|C_{top}| = {logs[top]:.4g})")
    return np.exp(logs) * phases


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


def _gram_rows(basis: LambdaBasis, size: int, first: int):
    """Yield the closed upper triangle rows G[m, m:size] of the ladder
    recurrence for one parity, m = first, first + 2, ... < size (first 0 or 1).

    Row 0 is the vacuum overlap lam^n / sqrt(n! L_n); resolving <m|a|n> two
    ways (lowering to the right, raising to the left) gives

        G[m+1, n] = c_m (lam G[m, n] + s_n G[m, n-1]),

    s_n = sqrt(n) rho_n, c_m = rho_{m+1}/sqrt(m+1), rho_n = sqrt(L_{n-1}/L_n),
    which seeds row 1. Applied twice it gives the two-step form

        G[m+2, n] = c_{m+1} c_m (lam^2 G[m, n] + 2 lam s_n G[m, n-1]
                                 + s_n s_{n-1} G[m, n-2]),

    which steps either parity on its own rows. Row m+2 on columns n >= m+2
    reads only row m on columns n-2 >= m, so the triangle is closed; each
    term carries the sign of lam^(n-m), as G[m+2, n] does, so nothing
    cancels, and entries are inner products of unit vectors, bounded by 1.
    The first row underflows to exact zeros past its first b entries and
    each step reaches two columns further, so every row is exactly zero past
    its first b entries: the steps skip those zeros.

    Each row is a view of one of two reused buffers, valid only until the
    next row is requested; a reader that keeps a row copies it.
    """
    lam = basis.lam
    if lam == 0.0:
        row = (np.arange(size) == 0).astype(float)
        yield from (row[: size - m] for m in range(first, size, 2))
        return
    lf = log_factorial_table(size - 1)[: size]
    lL = basis.log_laguerre[:size]
    rho, n = basis.rho[:size], np.arange(size)
    s = np.sqrt(n.astype(float)) * rho
    signs = np.where(n % 2 == 0, 1.0, math.copysign(1.0, lam))
    row = signs * np.exp(n * math.log(abs(lam)) - 0.5 * (lf + lL))
    c = rho[1:] / np.sqrt(np.arange(1.0, size))  # c_m for m < size - 1
    if first:
        row = (lam * row[1:] + s[1:] * row[:-1]) * c[0]
    cc = c[1:] * c[:-1]  # c_{m+1} c_m
    b = int(np.flatnonzero(row)[-1]) + 1
    twice_lam_s, pair = 2.0 * lam * s, np.empty(size)
    pair[1:] = s[1:] * s[:-1]
    cur, nxt, term = row, np.zeros_like(row), np.empty(size)
    for m in range(first, size, 2):
        yield cur[: size - m]
        width = min(size - m - 2, b)
        if width <= 0:
            return
        row, out, t = cur[:width + 2], nxt[:width], term[:width]
        np.multiply(row[2:], lam * lam, out=out)
        np.multiply(twice_lam_s[m + 2: m + 2 + width], row[1:-1], out=t)
        out += t
        np.multiply(pair[m + 2: m + 2 + width], row[:-2], out=t)
        out += t
        out *= cc[m]
        cur, nxt = nxt, cur


def _even_gram_block(basis: LambdaBasis, T: int) -> tuple[np.ndarray, np.ndarray]:
    """(U, diag) of the even block G[2j, 2k], j, k <= T: U its strict upper
    triangle as a (T+1, T+1) array, diag its diagonal, read from the parity-0
    rows of _gram_rows, of which only the nonzero band is copied."""
    size = 2 * T + 1
    basis._check(size - 1)
    upper, diag = np.zeros((T + 1, T + 1)), np.empty(T + 1)
    for j, row in enumerate(_gram_rows(basis, size, 0)):
        if j == 0:  # every row is exactly zero past row 0's band
            b = int(np.flatnonzero(row)[-1]) + 1
        band = row[2:b:2]
        diag[j], upper[j, j + 1: j + 1 + band.shape[0]] = row[0], band
    return upper, diag


def gram(basis: LambdaBasis, size: int) -> np.ndarray:
    """Gram matrix G[m, n] = <m|n>_lamlam, built by the ladder recurrence.

    Each triangle row of _gram_rows, of either parity, is written with its
    mirror in place, so G is exactly symmetric. Must agree with
    operators.overlap_analytic entrywise. Returns a fresh read-only (size x size) matrix.
    """
    basis._check(size - 1)
    G = np.empty((size, size))
    for first in (0, 1):
        for m, row in zip(range(first, size, 2), _gram_rows(basis, size, first)):
            G[m, m:] = G[m:, m] = row
    G.setflags(write=False)
    return G


def _cancels(kappa: float) -> bool:
    """Whether a sum with condition number kappa (sum of |terms| over |sum|)
    can lose more than 1e-12 of its value to rounding."""
    return kappa * np.finfo(float).eps > 1e-12


def _matvec(M: np.ndarray, c: np.ndarray) -> np.ndarray:
    """M @ c for a real matrix M and a complex vector c.

    Two real products, so M is never cast (copied) to complex.
    """
    return M @ c.real + 1j * (M @ c.imag)


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


class LambdaExpansion(NamedTuple):
    """A vector written over the deformed basis: sum_n coeffs[n] |n>_lam."""

    basis: LambdaBasis
    coeffs: np.ndarray

    def __repr__(self) -> str:
        return f"LambdaExpansion(basis={self.basis!r})"

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
        streamed over the triangle rows of the ladder recurrence.

        Each row G[m, m:] adds its diagonal term plus twice the real part of
        its strict-upper product, and is dropped, so the memory is O(d), not
        the (d x d) Gram matrix. A parity whose coefficients are all zero
        (the odd one of a squeezed series) computes no row. Over an
        alternating series the form cancels to a relative error of about
        kappa eps.
        """
        d = self.support
        self.basis._check(d - 1)
        c = np.asarray(self.coeffs, dtype=complex)
        mag = np.abs(c)
        total = bound = 0.0
        for first in (0, 1):
            if not c[first::2].any():
                continue
            for m, row in zip(range(first, d, 2), _gram_rows(self.basis, d, first)):
                if c[m] != 0:
                    cross = np.conj(c[m]) * _matvec(row[1:], c[m + 1:])
                    total += row[0] * mag[m] ** 2 + 2.0 * float(cross.real)
                    bound += mag[m] * (row[0] * mag[m]
                                       + 2.0 * float(np.abs(row[1:]) @ mag[m + 1:]))
        return math.sqrt(max(total, 0.0)), bound / total if total > 0 else math.inf
