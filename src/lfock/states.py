"""Coherent and squeezed states over the deformed basis.

The coherent family |alpha, lam> = C_0 sum_n alpha^n sqrt(L_n/n!) |n>_lam is
an eigenvector of a and coincides with e^{i lam Im(alpha)} D(alpha)|0> in the
standard basis. The squeezed family solves (a - xi a_dag_lam)|psi> = 0 with
support on even deformed indices; its normalization series has a finite
convergence radius R(lam) that is estimated numerically and enforced as a
construction guard.

Through |n>_lam = e^{lam a}|n>/sqrt(L_n) both families are Gaussian, phase
g(xi, mu)/||g|| with g(xi, mu) = e^{xi a_dag^2/2 + mu a_dag}|0>: coherent at
(0, alpha, e^{i lam Im alpha}), squeezed at (xi, xi lam, e^{i Im(xi) lam^2/2}),
with frame projections phase g_m(xi, mu + lam)/(sqrt(L_m) ||g||). The kernel
in fock (recurrence for g_m, closed-form norm and moments) serves these exact
states; a state built with an explicit truncation is that frame series. The
routes that check them (the Gram-route overlap, the triple sum for C_0 and
the operator forms) live in operators, which this module does not import.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .fock import (DomainError, LambdaBasis, LambdaExpansion, TruncationError,
                   _cancels, _check_truncation, _gaussian_amplitudes,
                   _gaussian_log_norm, _gram_rows, _phased_exp)
from .specfun import log_factorial_table, logsumexp_positive

_LN2 = math.log(2.0)
_HARD_CAP = 512


class _Family:
    """What both families share: _gaussian names the exact state
    phase g(xi, mu)/||g||, or is None for a truncated frame series."""

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


@dataclass(frozen=True)
class LambdaCoherent(_Family):
    """Eigenvector of a with eigenvalue alpha, expanded over |n>_lam.

    (alpha, basis) name the exact eigenvector, whose vector and statistics
    come from the kernel; the expansion C_n = C_0 alpha^n sqrt(L_n/n!) stores
    its frame coefficients, and is the state when built with an explicit N.
    Any accumulated global phase (from time evolution) is in `phase`.
    """

    alpha: complex
    basis: LambdaBasis
    expansion: LambdaExpansion = field(repr=False)
    phase: complex = 1.0 + 0.0j
    _truncated: bool = field(default=False, repr=False)

    @property
    def _gaussian(self) -> tuple[complex, complex, complex] | None:
        lam = self.basis.lam
        return None if self._truncated else (
            0j, self.alpha, self.phase * cmath.exp(1j * lam * self.alpha.imag))


@dataclass(frozen=True)
class LambdaSqueezed(_Family):
    """Solution of (a - xi a_dag_lam)|psi> = 0 over even deformed indices.

    With n_terms None the state is the exact Gaussian, C_0 is its closed-form
    norm constant and its vector and statistics come from the kernel; the
    expansion C_0 sum_n d_n |2n>_lam, cut where the terms fall below 1e-20 of
    the norm, is built on first use. With n_terms given the state is that
    truncated frame series, normalized through the Gram quadratic form.
    """

    xi: complex
    basis: LambdaBasis
    norm_constant: float = 1.0
    n_terms: int | None = None

    @cached_property
    def expansion(self) -> LambdaExpansion:
        if self.xi == 0:
            return LambdaExpansion(self.basis, np.ones(1, dtype=complex))
        u = _squeezed_series(self.xi, self.basis, self.n_terms)
        coeffs = np.zeros(2 * u.shape[0] - 1, dtype=complex)
        coeffs[::2] = self.norm_constant * u
        return LambdaExpansion(self.basis, coeffs)

    @property
    def _gaussian(self) -> tuple[complex, complex, complex] | None:
        lam = self.basis.lam
        return None if self.n_terms is not None else (
            self.xi, self.xi * lam, cmath.exp(0.5j * self.xi.imag * lam * lam))


def _coherent_coeffs(alpha: complex, basis: LambdaBasis, N: int) -> np.ndarray:
    """C_n = C_0 alpha^n sqrt(L_n/n!) for n < N and alpha != 0.

    Magnitudes are summed in log space and exponentiated with the unit
    phase (alpha/|alpha|)^n by _phased_exp, as the squeezed series is.
    """
    log_c0 = -basis.lam * alpha.real - abs(alpha) ** 2 / 2.0
    n = np.arange(N)
    logs = log_c0 + n * math.log(abs(alpha)) \
        + 0.5 * (basis.log_laguerre[:N] - log_factorial_table(N - 1))
    c = _phased_exp(logs, alpha, "C")
    if math.exp(log_c0) == 0.0:
        raise DomainError("normalization constant exp(-lam Re a - |a|^2/2) "
                          "underflows for these parameters")
    return c


def lambda_coherent(alpha: complex, basis: LambdaBasis,
                    N: int | None = None) -> LambdaCoherent:
    """Construct |alpha, lam> with C_0 = exp(-lam Re(alpha) - |alpha|^2/2).

    With N omitted the truncation grows adaptively until the geometric bound
    on the dropped coefficient tail falls below 1e-14, hard-capped at 512 and
    by the basis horizon.
    """
    alpha = complex(alpha)
    if alpha == 0:
        return LambdaCoherent(alpha, basis,
                              LambdaExpansion(basis, np.ones(1, dtype=complex)))
    cap = min(_HARD_CAP, basis.max_n + 1)
    if N is not None:
        _check_truncation(N, basis.max_n + 1)
        return LambdaCoherent(alpha, basis,
                              LambdaExpansion(basis, _coherent_coeffs(alpha, basis, N)),
                              _truncated=True)
    mean = abs(basis.lam + alpha) ** 2
    N = min(max(32, int(mean + 12.0 * math.sqrt(mean + 1.0) + 25.0)), cap)
    while True:
        c = _coherent_coeffs(alpha, basis, N)
        a_last, a_prev = abs(c[-1]), abs(c[-2])
        ratio = a_last / a_prev if a_prev > 0 else 0.0
        if a_last == 0.0 or (ratio < 0.9 and a_last * ratio / (1 - ratio) < 1e-14):
            return LambdaCoherent(alpha, basis, LambdaExpansion(basis, c))
        if N >= cap:
            raise TruncationError(
                f"coherent tail not below 1e-14 at the truncation cap {cap}; "
                "alpha or lam too large for this basis horizon")
        N = min(2 * N, cap)


def evolve(state: LambdaCoherent, t: float) -> LambdaCoherent:
    """Time evolution under the deformed oscillator: spectrum n + 1/2.

    Returns e^{-it/2} |alpha e^{-it}, lam>, rebuilt at the rotated amplitude
    with its own normalization constant (rotating the coefficients by e^{-int}
    alone would keep the old constant and drift off normalization), and at
    the input's truncation when it was built with one.
    """
    rotated = complex(state.alpha) * cmath.exp(-1j * t)
    N = state.truncation if state._truncated else None
    return replace(lambda_coherent(rotated, state.basis, N),
                   phase=state.phase * cmath.exp(-0.5j * t))


def _even_log_weights(T: int) -> np.ndarray:
    """log[(2n-1)!!/(2n)!!] for n = 0..T via factorial tables."""
    lf = log_factorial_table(2 * T)
    n = np.arange(T + 1)
    return lf[2 * n] - 2.0 * n * _LN2 - 2.0 * lf[n]


def squeezed_vacuum(xi: complex, N: int | None = None) -> np.ndarray:
    """Standard squeezed vacuum sum_n C_0 xi^n sqrt((2n-1)!!/(2n)!!) |2n>.

    C_0 comes from summing the normalization series numerically. Rejects
    |xi| >= 1, where the series diverges.
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
        N = 2 * T + 1
    else:
        T = max((N - 1) // 2, 0)
    n = np.arange(T + 1)
    u = xi ** n * np.exp(0.5 * _even_log_weights(T))
    c0 = 1.0 / math.sqrt(float(np.sum(np.abs(u) ** 2)))
    v = np.zeros(N, dtype=complex)
    v[2 * n] = c0 * u
    return v


# The guard's rays k pi/4 for k = 0..4 (rays phi and 2 pi - phi give identical
# partial sums, the expansion rows being real) and its r-grid factor
_SCAN_PHASES = [k * math.pi / 4.0 for k in range(5)]
_SCAN_FACTOR = 1.05
# The five ray radii per lam, from one _scan_radii pass: floats only, one
# entry per distinct lam a process asks about; the scan's even Gram triangle
# lives only while _scan_radii runs.
_GUARD_RADII: dict[float, list[float]] = {}
_SCAN_T_MAX = 800
# The squeezed family's basis horizon: it covers the scan's 2 * _SCAN_T_MAX
# rows, so the guard scan and the states share one basis per lam
_SQUEEZED_MAX_N = 1604
_SCAN_WINDOW = 20
_SCAN_TOL = 1e-12


def _cauchy_runs(flags: np.ndarray) -> np.ndarray:
    """Per row of flags, whether it holds _SCAN_WINDOW consecutive Trues."""
    run = np.cumsum(np.pad(flags, ((0, 0), (1, 0))), axis=1)
    return (run[:, _SCAN_WINDOW:] - run[:, :-_SCAN_WINDOW] == _SCAN_WINDOW).any(axis=1)


def _bound_steps(base_logs: np.ndarray, k: np.ndarray, grid: list[float]):
    """Yield (r, a term passes the overflow guard, the phase-free bound
    passes) along grid, the bound evaluated for 16 r at a time."""
    for start in range(0, len(grid), 16):
        rs = grid[start: start + 16]
        mags = np.multiply.outer([math.log(r) for r in rs], k) + base_logs
        over = mags.max(axis=1) > 300.0
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(mags, out=mags)
            bound = mags * (2.0 * (np.cumsum(mags, axis=1) - mags) + mags)
        passes = _cauchy_runs(bound < _SCAN_TOL)
        del mags, bound  # only flags stay alive while the scan runs
        yield from zip(rs, over, passes)


def _scan_radii(basis: LambdaBasis) -> list[float]:
    """Convergence radius of the squeezed normalization series on each ray
    of _SCAN_PHASES.

    Walks r over the grid 0.01 * factor^j <= 2, factor = _SCAN_FACTOR, for
    all rays at once. At each r the partial sums
    S_T = ||sum_{n<=T} u_n |2n>_lam||^2, with
    u_n = (r e^{i phase})^n sqrt(L_2n (2n-1)!!/(2n)!!), pass when 20
    consecutive increments |S_T - S_{T-1}| fall below 1e-12 within the
    scanned terms; a term past the overflow guard fails every ray. Since
    every Gram entry is at most 1, |Delta S_T| <= |u_T| (2 sum_{k<T} |u_k| +
    |u_T|), a bound free of the phase, tested for 16 r at a time: where it
    passes, every ray passes. Elsewhere the running rays take the exact
    increments 2 Re(conj(u_T) (U^T u)_T) + G_TT |u_T|^2 from one product
    U^T X, X the real and imaginary parts of every running ray and U the
    raw strict upper triangle of the even Gram block (from the closed triangle
    of the recurrence, built at the first such r, freed on return). A ray's
    radius is the last r that passes before its first failure, or 2.
    """
    T = _SCAN_T_MAX
    work = basis if basis.max_n >= 2 * T else LambdaBasis(basis.lam, 2 * T)
    base_logs = 0.5 * (work.log_laguerre[0: 2 * T + 1: 2]
                       + _even_log_weights(T))
    k = np.arange(T + 1)
    phases, factor = _SCAN_PHASES, _SCAN_FACTOR
    # rays[:, i] = (cos, sin)(phase_i k)
    rays = np.stack([f(np.multiply.outer(k, phases)) for f in (np.cos, np.sin)], axis=2)
    grid = [0.01]
    while grid[-1] * factor <= 2.0:
        grid.append(grid[-1] * factor)
    radii = [2.0] * len(phases)
    running = list(range(len(phases)))
    upper = None
    last_ok = 0.0
    for r, over, bound_ok in _bound_steps(base_logs, k, grid):
        if not running:
            break
        failed = running if over else []  # past the overflow guard all fail
        if not (over or bound_ok):
            if upper is None:
                upper, diag = np.zeros((T + 1, T + 1)), np.empty(T + 1)
                rows = _gram_rows(work, 2 * T + 1)
                for i, row in enumerate(itertools.islice(rows, 0, None, 2)):
                    diag[i], upper[i, i + 1:] = row[0], row[2::2]
            mags = np.exp(base_logs + k * math.log(r))  # <= e^300: no overflow
            X = mags[:, None, None] * rays[:, running]
            UX = (upper.T @ X.reshape(T + 1, -1)).reshape(X.shape)
            inc = np.abs(2.0 * (X * UX).sum(axis=2)
                         + (diag * mags * mags)[:, None])
            ok = _cauchy_runs((inc < _SCAN_TOL).T)
            failed = [i for i, passed in zip(running, ok) if not passed]
        for i in failed:
            radii[i] = last_ok
        running = [i for i in running if i not in failed]
        last_ok = r
    return radii


def _ray_radii(basis: LambdaBasis) -> list[float]:
    """The five ray radii of basis.lam, from one _scan_radii pass per lam."""
    radii = _GUARD_RADII.get(basis.lam)
    if radii is None:
        radii = _GUARD_RADII[basis.lam] = _scan_radii(basis)
    return radii


def radius_estimate(basis: LambdaBasis) -> float:
    """Numerical convergence radius of the squeezed normalization series on
    the positive real ray (phase 0), read from the scan radius_min shares."""
    return _ray_radii(basis)[0]


def radius_min(basis: LambdaBasis) -> float:
    """min of the convergence radius over 8 phase rays (the 5 in [0, pi]
    are scanned): the phase-uniform guard, from the scan radius_estimate
    shares."""
    return min(_ray_radii(basis))


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
    first T + 1 of T = 4, 8, 16, ... at which _squeezed_settled holds."""
    if n_terms is not None:
        _check_truncation(n_terms, basis.max_n // 2 + 1)
        return n_terms
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


def _squeezed_series(xi: complex, basis: LambdaBasis,
                     n_terms: int | None) -> np.ndarray:
    """d_n = xi^n sqrt(L_2n (2n-1)!!/(2n)!!) for n < _squeezed_terms.

    ln|d_n| is summed in log space and xi^n enters as ln|xi| plus the unit
    phase, so small terms with a huge Laguerre factor stay representable.
    Inside the guarded disk the range check cannot fire for n <= 800: the
    scan's overflow guard caps ln|d_n| at 300 at every passing r, and ln|d_n|
    grows with |xi|. It guards longer series and unguarded states.
    """
    T = _squeezed_terms(xi, basis, n_terms) - 1
    logs = np.arange(T + 1) * math.log(abs(xi)) \
        + 0.5 * (basis.log_laguerre[0: 2 * T + 1: 2] + _even_log_weights(T))
    return _phased_exp(logs, xi, "d")


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
    if xi == 0:
        return LambdaSqueezed(xi, basis, 1.0, n_terms)
    lam = basis.lam
    if n_terms is None:
        with np.errstate(over="ignore", under="ignore"):
            c0 = float(np.exp(-0.5 * xi.real * lam * lam
                              - 0.5 * _gaussian_log_norm(xi, xi * lam)))
        if not (c0 > 0 and math.isfinite(c0)):
            raise DomainError(f"normalization constant at |xi|={abs(xi):.4f} "
                              "leaves the double range")
        return LambdaSqueezed(xi, basis, c0)
    u = _squeezed_series(xi, basis, n_terms)
    coeffs = np.zeros(2 * u.shape[0] - 1, dtype=complex)
    coeffs[::2] = u
    norm, kappa = LambdaExpansion(basis, coeffs).norm_and_condition()
    if not math.isfinite(norm):
        raise DomainError(
            f"normalization series not summable at |xi|={abs(xi):.4f}")
    # u^H G u cancels over an alternating series, to a relative error kappa
    # eps, or to a non-positive value (kappa infinite)
    if _cancels(kappa):
        raise DomainError(f"the truncated series cancels in its norm "
                          f"(condition number {kappa:.3g})")
    return LambdaSqueezed(xi, basis, 1.0 / norm, n_terms)
