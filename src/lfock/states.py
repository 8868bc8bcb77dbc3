"""Coherent and squeezed states over the deformed basis.

The coherent family |alpha, lam> = C_0 sum_n alpha^n sqrt(L_n/n!) |n>_lam is
an eigenvector of a and coincides with e^{i lam Im(alpha)} D(alpha)|0> in the
standard basis. The squeezed family solves (a - xi a_dag_lam)|psi> = 0 with
support on even deformed indices; its normalization series has a finite
convergence radius R(lam) that is estimated numerically and enforced as a
construction guard. The even Gram block is entrywise non-negative (each
<2j|2k>_lam carries even powers of lam only), so the phase-0 ray has the
largest partial-sum increments and its radius is the minimum over phases:
one scan per |lam| bisects an r grid on that ray, deciding each r by an
overflow test, a Gram-free upper and lower bound, a closed-form upper bound
for r < 1, and only where those leave it open the exact increments from one
Gram matvec.

Through |n>_lam = e^{lam a}|n>/sqrt(L_n) both families are Gaussian, phase
g(xi, mu)/||g|| with g(xi, mu) = e^{xi a_dag^2/2 + mu a_dag}|0>: coherent at
(0, alpha, e^{i lam Im alpha}), squeezed at (xi, xi lam, e^{i Im(xi) lam^2/2}),
with frame projections phase g_m(xi, mu + lam)/(sqrt(L_m) ||g||). The kernel
in fock (g_m, closed-form norm and moments, _frame_coeffs) serves these exact
states; a state built with an explicit truncation is that frame series. The
routes that check them (the Gram-route overlap, the triple sum for C_0 and
the operator forms) live in operators, which this module does not import.
"""

from __future__ import annotations

import bisect
import cmath
import math
from functools import cached_property

import numpy as np

from .fock import (DomainError, LambdaBasis, LambdaExpansion, TruncationError,
                   _cancels, _check_truncation, _even_gram_block,
                   _frame_coeffs, _gaussian_amplitudes, _gaussian_log_norm)
from .specfun import log_factorial_table, logsumexp_positive

_LN2 = math.log(2.0)
_HARD_CAP = 512


class _Family:
    """What both families share: _gaussian names the exact state
    phase g(xi, mu)/||g||, or is None for a truncated frame series.

    A state is immutable: its constructor fills __dict__ and assignment
    raises, while cached_property still stores into __dict__. The repr
    shows the fields in _shown, never a coefficient array."""

    _shown: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._shown)
        return f"{type(self).__name__}({shown})"

    @property
    def truncation(self) -> int:
        return self.expansion.support

    def to_standard(self, N: int | None = None) -> np.ndarray:
        """Components m < N (default: the truncation), from the kernel, or
        for a truncated series its T-operator image."""
        if self._gaussian is None:
            return getattr(self, "phase", 1.0) * self.expansion.to_standard(N)
        xi, mu, phase = self._gaussian
        mant, expo = _gaussian_amplitudes(xi, mu, self.truncation if N is None else N)
        half = 0.5 * float(_gaussian_log_norm(complex(xi), complex(mu)))
        k = round(half / _LN2)  # 2^expo / ||g|| = 2^(expo - k) e^{k ln 2 - half}
        return phase * math.exp(k * _LN2 - half) * mant[:, 0] * np.exp2(expo[:, 0] - k)


class LambdaCoherent(_Family):
    """Eigenvector of a with eigenvalue alpha, expanded over |n>_lam.

    (alpha, basis) name the exact eigenvector, whose vector and statistics
    come from the kernel; the expansion C_n = C_0 alpha^n sqrt(L_n/n!) stores
    its frame coefficients, and is the state when built with an explicit N.
    Any accumulated global phase (from time evolution) is in `phase`.
    """

    _shown = ("alpha", "basis", "phase")

    def __init__(self, alpha: complex, basis: LambdaBasis,
                 expansion: LambdaExpansion, phase: complex = 1.0 + 0.0j,
                 _truncated: bool = False):
        self.__dict__.update(alpha=alpha, basis=basis, expansion=expansion,
                             phase=phase, _truncated=_truncated)

    @property
    def _gaussian(self) -> tuple[complex, complex, complex] | None:
        lam = self.basis.lam
        return None if self._truncated else (
            0j, self.alpha, self.phase * cmath.exp(1j * lam * self.alpha.imag))


class LambdaSqueezed(_Family):
    """Solution of (a - xi a_dag_lam)|psi> = 0 over even deformed indices.

    With n_terms None the state is the exact Gaussian, C_0 is its closed-form
    norm constant and its vector and statistics come from the kernel; the
    expansion C_0 sum_n d_n |2n>_lam, cut where the terms fall below 1e-20 of
    the norm, is built on first use (g_n(xi, 0): odd entries exactly 0). With
    n_terms given the state is that truncated frame series, normalized
    through the Gram quadratic form.
    """

    _shown = ("xi", "basis", "norm_constant", "n_terms")

    def __init__(self, xi: complex, basis: LambdaBasis, norm_constant: float = 1.0,
                 n_terms: int | None = None,
                 _series: tuple[LambdaExpansion, float, float] | None = None):
        # _series: a truncated series from lambda_squeezed, its expansion and
        # the norm and condition number of its Gram form, from the
        # construction's one pass
        self.__dict__.update(xi=xi, basis=basis, norm_constant=norm_constant,
                             n_terms=n_terms, _series=_series)

    @cached_property
    def expansion(self) -> LambdaExpansion:
        if self._series is not None:
            return self._series[0]
        xi, lam = self.xi, self.basis.lam
        return LambdaExpansion(self.basis, _frame_coeffs(
            xi, xi * lam, math.log(self.norm_constant) + 0.5 * xi * lam * lam,
            self.basis, 2 * _squeezed_terms(xi, self.basis, self.n_terms) - 1))

    @property
    def _gaussian(self) -> tuple[complex, complex, complex] | None:
        lam = self.basis.lam
        return None if self.n_terms is not None else (
            self.xi, self.xi * lam, cmath.exp(0.5j * self.xi.imag * lam * lam))

    def norm_and_condition(self) -> tuple[float, float]:
        """sqrt(c^H G c) of the expansion and its condition number; for a
        truncated series built by lambda_squeezed, its construction's
        values with the norm scaled by norm_constant, not a second pass."""
        if self._series is not None:
            return self._series[1:]
        return self.expansion.norm_and_condition()


def lambda_coherent(alpha: complex, basis: LambdaBasis,
                    N: int | None = None) -> LambdaCoherent:
    """Construct |alpha, lam> with C_0 = exp(-lam Re(alpha) - |alpha|^2/2).

    With N omitted the coefficients are evaluated once at the cap (512, or
    the basis horizon) and N is the first count whose last ratio
    q = |C_{N-1}/C_{N-2}| is below 0.9 with |C_{N-1}| q/(1-q) below 1e-14, a
    bound on sum_{n>=N} |C_n|: the ratio |alpha| sqrt((1 + s_n)/n) never
    rises, s_n = 1/rho_n^2 - 1 being non-increasing; a last C_{N-1} = 0 is
    left out, so the vacuum keeps its one term.
    """
    alpha = complex(alpha)
    if N is not None:
        _check_truncation(N, basis.max_n + 1)
    cap = min(_HARD_CAP, basis.max_n + 1)
    c = _frame_coeffs(0j, alpha, complex(-abs(alpha) ** 2 / 2.0,
                                         basis.lam * alpha.imag), basis, N or cap)
    if c[0] == 0:
        raise DomainError("normalization constant exp(-lam Re a - |a|^2/2) "
                          "underflows for these parameters")
    if N is None:
        a = np.abs(c)
        with np.errstate(all="ignore"):  # q is 0 where |C_{N-2}| underflows
            q = np.where(a[:-1] > 0, a[1:] / a[:-1], 0.0)
            done = (a[1:] == 0) | ((q < 0.9) & (a[1:] * q / (1 - q) < 1e-14))
        if not done.any():
            raise TruncationError(
                f"coherent tail not below 1e-14 at the truncation cap {cap}; "
                "alpha or lam too large for this basis horizon")
        last = int(np.argmax(done)) + 1  # C_last, kept unless exactly 0
        c = c[: last + bool(a[last])].copy()
    return LambdaCoherent(alpha, basis, LambdaExpansion(basis, c),
                          _truncated=N is not None)


def evolve(state: LambdaCoherent, t: float) -> LambdaCoherent:
    """Time evolution under the deformed oscillator: spectrum n + 1/2.

    Returns e^{-it/2} |alpha e^{-it}, lam>, rebuilt at the rotated amplitude
    with its own normalization constant (rotating the coefficients by e^{-int}
    alone would keep the old constant and drift off normalization), and at
    the input's truncation when it was built with one.
    """
    rotated = complex(state.alpha) * cmath.exp(-1j * t)
    N = state.truncation if state._truncated else None
    fresh = lambda_coherent(rotated, state.basis, N)
    return LambdaCoherent(fresh.alpha, fresh.basis, fresh.expansion,
                          state.phase * cmath.exp(-0.5j * t), fresh._truncated)


def _even_log_weights(T: int) -> np.ndarray:
    """log[(2n-1)!!/(2n)!!] for n = 0..T via factorial tables."""
    lf = log_factorial_table(2 * T)
    n = np.arange(T + 1)
    return lf[2 * n] - 2.0 * n * _LN2 - 2.0 * lf[n]


def squeezed_vacuum(xi: complex, N: int | None = None) -> np.ndarray:
    """Standard squeezed vacuum sum_n C_0 xi^n sqrt((2n-1)!!/(2n)!!) |2n>.

    C_0 comes from summing the normalization series numerically. Rejects
    |xi| >= 1, where the series diverges. With N omitted the series is cut
    where its terms fall below 1e-30, at most at n = 20000, and raises
    TruncationError where the last term kept there is not below 1e-20 of
    the closed-form sum (1-|xi|^2)^(-1/2), the tail _squeezed_settled asks.
    """
    xi = complex(xi)
    if abs(xi) >= 1.0:
        raise DomainError(f"|xi|={abs(xi):.4f} >= 1: squeezed vacuum series diverges",
                          radius=1.0)
    if xi == 0:
        v = np.zeros(max(N or 1, 1), dtype=complex)
        v[0] = 1.0
        return v
    if N is None:
        T = int(math.ceil((math.log(1e-30) + math.log1p(-abs(xi) ** 2))
                          / (2.0 * math.log(abs(xi))))) + 1
        T = min(max(T, 4), 20000)
        # ln(|u_T|^2 / sum_n |u_n|^2), the sum (1-|xi|^2)^(-1/2) in closed form
        if T == 20000 and 2.0 * T * math.log(abs(xi)) + _even_log_weights(T)[T] \
                + 0.5 * math.log1p(-abs(xi) ** 2) >= _SQUEEZED_TAIL:
            raise TruncationError(
                f"squeezed vacuum tail not below 1e-20 of the norm at the term "
                f"cap {T}; |xi|={abs(xi):.6g} too close to 1")
        N = 2 * T + 1
    else:
        T = max((N - 1) // 2, 0)
    n = np.arange(T + 1)
    u = xi ** n * np.exp(0.5 * _even_log_weights(T))
    c0 = 1.0 / math.sqrt(float(np.sum(np.abs(u) ** 2)))
    v = np.zeros(N, dtype=complex)
    v[2 * n] = c0 * u
    return v


# The guard's r-grid factor
_SCAN_FACTOR = 1.05
# The guard radius per |lam|, from one _scan_radius pass: one float per
# distinct |lam| a process asks about (the scan reads lam only through lam^2,
# |lam| and the even Gram block, and G(-lam) = D G(lam) D, D = diag((-1)^n),
# leaves that block alone); the scan's even Gram triangle lives only while
# _scan_radius runs.
_GUARD_RADII: dict[float, float] = {}
_SCAN_T_MAX = 800
# The squeezed family's basis horizon: it covers the scan's 2 * _SCAN_T_MAX
# rows, so the guard scan and the states share one basis per lam
_SQUEEZED_MAX_N = 1604
_SCAN_WINDOW = 20
_SCAN_TOL = 1e-12
_LOG_SCAN_TOL = math.log(_SCAN_TOL)


def _cauchy_run(flags: np.ndarray) -> bool:
    """Whether flags holds _SCAN_WINDOW consecutive Trues."""
    run = np.zeros(flags.shape[0] + 1, dtype=np.intp)  # run[i]: Trues before i
    np.cumsum(flags, out=run[1:])
    return bool((run[_SCAN_WINDOW:] - run[:-_SCAN_WINDOW] == _SCAN_WINDOW).any())


def _gaussian_log_bound(xi: float, mu: float, m: np.ndarray) -> np.ndarray:
    """Upper bound on ln g_m(xi, mu) for 0 < xi < 1, mu >= 0, integers m >= 1.

    There every g_m is non-negative and sum_m g_m t^m / sqrt(m!) =
    e^{xi t^2/2 + mu t}, so ln g_m <= ln(m!)/2 + xi t^2/2 + mu t - m ln t at
    every t > 0; t = 2m / (mu + sqrt(mu^2 + 4 xi m)), the saddle point,
    minimizes it.
    """
    t = 2.0 * m / (mu + np.sqrt(mu * mu + 4.0 * xi * m))
    return 0.5 * log_factorial_table(int(m.max()))[m] \
        + t * (0.5 * xi * t + mu) - m * np.log(t)


def _scan_radius(basis: LambdaBasis) -> float:
    """Convergence radius of the squeezed normalization series, the minimum
    over phase rays, which is that of the phase-0 ray.

    At r on the ray of phase phi the partial sums are
    S_T = ||sum_{n<=T} u_n |2n>_lam||^2 with u_n = (r e^{i phi})^n m_n,
    m_n = sqrt(L_2n (2n-1)!!/(2n)!!); r passes when 20 consecutive
    increments |S_T - S_{T-1}| fall below 1e-12 within the scanned terms.
    Every term of <2k|2T>_lam carries an even power of lam, so the even Gram
    block G is entrywise non-negative, and
    |Delta S_T(phi)| = |2 Re(e^{-iT phi} m_T sum_{k<T} G_kT e^{ik phi} m_k)
    + G_TT m_T^2| <= Delta S_T(0): the phase-0 ray fails first and its radius
    is the minimum. On that ray (u_n = r^n m_n) each r takes the first of
    five verdicts: a term with ln u_n above 300 fails; the bound
    u_T (2 sum_{k<T} u_k + u_T), from every Gram entry being at most 1,
    passes; the lower bound u_T^2, from G_TT = 1, fails where it leaves no
    20-term window below 1e-12; for r < 1 the closed-form bound below passes
    where it leaves such a window; else the exact increments
    2 u_T (U^T u)_T + G_TT u_T^2 decide, U the strict upper triangle of G
    (the 801 even rows of the Gram recurrence: the parity-0 rows of
    fock._gram_rows, read by fock._even_gram_block at the first such r and
    freed on return, so no odd row is computed). The closed form: since
    |n>_lam = e^{lam a}|n>/sqrt(L_n) and u_k / sqrt(L_2k) = g_2k(r, 0),
    sum_k u_k |2k>_lam = e^{lam a} g(r, 0) = e^{r lam^2/2} g(r, r lam);
    with <2T|_lam = <2T| e^{lam a_dag}/sqrt(L_2T) and g_2T even in mu, for
    r < 1
        sum_{k>=0} G_kT u_k = e^{r lam^2/2} g_2T(r, |lam|(1+r)) / sqrt(L_2T),
    a sum of non-negative terms with G_TT = 1, so the increment is at most
    2 u_T times it, and _gaussian_log_bound bounds g_2T in closed form.
    Every term of every verdict is non-negative and grows with r, so every
    verdict is monotone in r and the radius, the largest passing r of the
    grid 0.01 * factor^j <= 2 (factor = _SCAN_FACTOR), is found by
    bisection: 0 if the grid's first r fails, 2 if none does.
    """
    T = _SCAN_T_MAX
    work = basis if basis.max_n >= 2 * T else LambdaBasis(basis.lam, 2 * T)
    base_logs = 0.5 * (work.log_laguerre[0: 2 * T + 1: 2]
                       + _even_log_weights(T))
    k = np.arange(T + 1)
    # for the closed-form bound, at T >= 1 (the T = 0 increment is 1)
    lam, even = work.lam, 2 * k[1:]
    half_lag = 0.5 * work.log_laguerre[2: 2 * T + 1: 2]
    upper = diag = None  # U and diag G, built on the first exact verdict

    def fails(r: float) -> bool:
        nonlocal upper, diag
        logs = base_logs + k * math.log(r)
        if logs.max() > 300.0:
            return True
        mags = np.exp(logs)  # <= e^300: no overflow
        if _cauchy_run(mags * (2.0 * (np.cumsum(mags) - mags) + mags) < _SCAN_TOL):
            return False
        if not _cauchy_run(mags * mags < _SCAN_TOL):
            return True
        if r < 1.0 and _cauchy_run(
                _LN2 + logs[1:] - half_lag + 0.5 * r * lam * lam
                + _gaussian_log_bound(r, abs(lam) * (1.0 + r), even) < _LOG_SCAN_TOL):
            return False
        if upper is None:
            upper, diag = _even_gram_block(work, T)
        inc = np.abs(2.0 * (mags * (upper.T @ mags)) + diag * mags * mags)
        return not _cauchy_run(inc < _SCAN_TOL)

    grid = [0.01]
    while grid[-1] * _SCAN_FACTOR <= 2.0:
        grid.append(grid[-1] * _SCAN_FACTOR)
    first = bisect.bisect_left(grid, True, key=fails)  # the first failing r
    if first == len(grid):
        return 2.0
    return grid[first - 1] if first else 0.0


def radius_min(basis: LambdaBasis) -> float:
    """min of the convergence radius over phase rays: the phase-uniform
    guard, from one _scan_radius pass per |lam| (the phase-0 ray fails first)."""
    key = abs(basis.lam)
    radius = _GUARD_RADII.get(key)
    if radius is None:
        radius = _GUARD_RADII[key] = _scan_radius(basis)
    return radius


def _guard_xi(xi: complex, basis: LambdaBasis) -> None:
    """Refuse |xi| >= 0.95 R(lam): the only squeezed error carrying a radius
    (besides squeezed_vacuum's |xi| >= 1), which the sweeps count."""
    rmin = radius_min(basis)
    if abs(xi) >= 0.95 * rmin:
        raise DomainError(
            f"|xi|={abs(xi):.4f} outside the guarded disk 0.95*R = "
            f"{0.95 * rmin:.4f} (estimated R({basis.lam}) = {rmin:.4f})",
            radius=rmin)


_SQUEEZED_TAIL = math.log(1e-20)


def _squeezed_settled(xi: complex, basis: LambdaBasis, T: int) -> bool:
    """Whether the exact normalization series has settled at the terms
    n <= T: the last diagonal term falls below 1e-20 of the running total
    (so the dropped coefficients are ~1e-10 of the norm, keeping the defining
    equation residual well under 1e-8) and the last five terms decrease.
    xi = 0, the vacuum, has settled at every T."""
    if xi == 0:
        return True
    diag_logs = 2.0 * np.arange(T + 1) * math.log(abs(xi)) \
        + np.asarray(basis.log_laguerre[0: 2 * T + 1: 2]) + _even_log_weights(T)
    total = logsumexp_positive(diag_logs)
    return bool(diag_logs[-1] - total < _SQUEEZED_TAIL
                and np.all(np.diff(diag_logs[-5:]) < 0))


def _squeezed_terms(xi: complex, basis: LambdaBasis,
                    n_terms: int | None) -> int:
    """Even-index term count for the normalization series: n_terms, or the
    first T + 1 of T = 4, 8, 16, ... at which _squeezed_settled holds (the
    vacuum: 1).

    The doubling stays because its overshoot is what verify's 1e-11
    defining-equation check relies on: at the first settled T the residual
    is 1.02e-11 (lam 0.5, xi 0.2) and 1.03e-11 (xi 0.3 e^{i pi/4}), at the
    doubled T 2.2e-12 and 6.3e-17. A rule bounding the dropped part,
    C_0 sum_{n>T} |d_n| < 1e-10, would need 520 terms at lam 4, xi -0.75,
    where the doubling takes 513 and the first settled T 336."""
    if n_terms is not None:
        _check_truncation(n_terms, basis.max_n // 2 + 1)
        return n_terms
    if xi == 0:
        return 1
    T = 4
    while True:
        if 2 * T > basis.max_n:
            raise TruncationError(
                f"normalization tail still not negligible at the basis "
                f"horizon max_n={basis.max_n}; build a LambdaBasis with a "
                "larger max_n")
        if _squeezed_settled(xi, basis, T):
            return T + 1
        T = min(2 * T, (basis.max_n // 2) + 1)


def lambda_squeezed(xi: complex, basis: LambdaBasis,
                    n_terms: int | None = None) -> LambdaSqueezed:
    """Construct the deformed squeezed state C_0 sum_n d_n |2n>_lam.

    d_n = xi^n sqrt(L_2n (2n-1)!!/(2n)!!). Guarded to |xi| < 0.95 R(lam) with
    R the scan minimum over phase rays. With n_terms None, C_0 normalizes the
    exact state, psi = C_0 e^{xi lam^2/2} g(xi, xi lam):
    ln C_0 = -Re(xi) lam^2/2 - ln ||g(xi, xi lam)||^2 / 2. With n_terms given,
    C_0 normalizes the truncated series through the Gram quadratic form,
    streamed by LambdaExpansion.norm_and_condition.
    """
    xi = complex(xi)
    _guard_xi(xi, basis)
    lam = basis.lam
    if n_terms is None:
        with np.errstate(over="ignore", under="ignore"):
            c0 = float(np.exp(-0.5 * xi.real * lam * lam
                              - 0.5 * _gaussian_log_norm(xi, xi * lam)))
        if not (c0 > 0 and math.isfinite(c0)):
            raise DomainError(f"normalization constant at |xi|={abs(xi):.4f} "
                              "leaves the double range")
        return LambdaSqueezed(xi, basis, c0)
    expansion = LambdaSqueezed(xi, basis, 1.0, n_terms).expansion  # C_0 = 1
    norm, kappa = expansion.norm_and_condition()
    if not math.isfinite(norm):
        raise DomainError(
            f"normalization series not summable at |xi|={abs(xi):.4f}")
    # u^H G u cancels over an alternating series, to a relative error kappa
    # eps, or to a non-positive value (kappa infinite)
    if _cancels(kappa):
        raise DomainError(f"the truncated series cancels in its norm "
                          f"(condition number {kappa:.3g})")
    c0 = 1.0 / norm
    expansion.coeffs[:] *= c0  # expansion now holds the normalized series
    return LambdaSqueezed(xi, basis, c0, n_terms, (expansion, c0 * norm, kappa))
