"""Coherent and squeezed states over the deformed basis.

The coherent family |alpha, lam> = C_0 sum_n alpha^n sqrt(L_n/n!) |n>_lam is
an eigenvector of a and coincides with e^{i lam Im(alpha)} D(alpha)|0> in the
standard basis. The squeezed family solves (a - xi a_dag_lam)|psi> = 0 with
support on even deformed indices; its normalization series has a finite
convergence radius R(lam) that is estimated numerically and enforced as a
construction guard.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import operators
from .fock import LambdaBasis, LambdaExpansion, _matvec, gram
from .specfun import log_factorial_table, logsumexp_positive

_LN2 = math.log(2.0)
_HARD_CAP = 512


class DomainError(ValueError):
    """A state parameter lies outside its convergence domain."""

    def __init__(self, message: str, radius: float | None = None):
        super().__init__(message)
        self.radius = radius


@dataclass(frozen=True)
class LambdaCoherent:
    """Eigenvector of a with eigenvalue alpha, expanded over |n>_lam.

    (alpha, basis) name the exact eigenvector, whose statistics come from
    closed forms; the expansion, C_n = C_0 alpha^n sqrt(L_n/n!) up to the
    truncation, is only storage for to_standard. Any accumulated global phase
    (from time evolution) is carried separately in `phase`.
    """

    alpha: complex
    basis: LambdaBasis
    expansion: LambdaExpansion = field(repr=False)
    phase: complex = 1.0 + 0.0j

    @property
    def truncation(self) -> int:
        return self.expansion.support

    def to_standard(self, N: int | None = None) -> np.ndarray:
        return self.phase * self.expansion.to_standard(N)


@dataclass(frozen=True)
class LambdaSqueezed:
    """Solution of (a - xi a_dag_lam)|psi> = 0 over even deformed indices."""

    xi: complex
    basis: LambdaBasis
    expansion: LambdaExpansion = field(repr=False)
    norm_constant: float = 1.0

    @property
    def truncation(self) -> int:
        return self.expansion.support

    def to_standard(self, N: int | None = None) -> np.ndarray:
        return self.expansion.to_standard(N)


def _coherent_coeffs(alpha: complex, basis: LambdaBasis, N: int) -> np.ndarray:
    """C_n = C_0 alpha^n sqrt(L_n/n!) for n < N and alpha != 0.

    Magnitudes are summed in log space and only the unit phase
    (alpha/|alpha|)^n is accumulated as a product, so nothing can overflow
    before the final exponential.
    """
    log_c0 = -basis.lam * alpha.real - abs(alpha) ** 2 / 2.0
    try:
        c0 = math.exp(log_c0)
    except OverflowError:
        raise DomainError("normalization constant exp(-lam Re a - |a|^2/2) "
                          "overflows for these parameters") from None
    if c0 == 0.0:
        raise DomainError("normalization constant exp(-lam Re a - |a|^2/2) "
                          "underflows for these parameters")
    n = np.arange(N)
    logs = log_c0 + n * math.log(abs(alpha)) \
        + 0.5 * (basis.log_laguerre[:N] - log_factorial_table(N - 1))
    phases = np.ones(N, dtype=complex)
    phases[1:] = np.cumprod(np.full(N - 1, alpha / abs(alpha)))
    return np.exp(logs) * phases


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
        basis._check(N - 1, "truncation")
        return LambdaCoherent(alpha, basis,
                              LambdaExpansion(basis, _coherent_coeffs(alpha, basis, N)))
    mean = abs(basis.lam + alpha) ** 2
    N = min(max(32, int(mean + 12.0 * math.sqrt(mean + 1.0) + 25.0)), cap)
    while True:
        c = _coherent_coeffs(alpha, basis, N)
        a_last, a_prev = abs(c[-1]), abs(c[-2])
        ratio = a_last / a_prev if a_prev > 0 else 0.0
        if a_last == 0.0 or (ratio < 0.9 and a_last * ratio / (1 - ratio) < 1e-14):
            return LambdaCoherent(alpha, basis, LambdaExpansion(basis, c))
        if N >= cap:
            raise operators.TruncationError(
                f"coherent tail not below 1e-14 at the truncation cap {cap}; "
                "alpha or lam too large for this basis horizon")
        N = min(2 * N, cap)


def coherent_overlap(alpha: complex, beta: complex,
                     basis: LambdaBasis) -> complex:
    """<alpha, lam | beta, lam> by the Gram double sum.

    The normalization constants of the two states supply the prefactor
    exp(-lam Re(alpha) - lam Re(beta) - |alpha|^2/2 - |beta|^2/2); the double
    sum over alpha*^m beta^n sqrt(L_m L_n / (m! n!)) contracts with the Gram
    matrix. Equals the canonical coherent overlap times e^{i lam (Im beta -
    Im alpha)}.
    """
    sa = lambda_coherent(alpha, basis)
    sb = lambda_coherent(beta, basis)
    size = max(sa.truncation, sb.truncation)
    G = gram(basis, size)
    ca = np.zeros(size, dtype=complex)
    cb = np.zeros(size, dtype=complex)
    ca[: sa.truncation] = sa.expansion.coeffs
    cb[: sb.truncation] = sb.expansion.coeffs
    return complex(np.vdot(ca, _matvec(G, cb)))


def displaced_form(alpha: complex, basis: LambdaBasis,
                   N: int | None = None) -> np.ndarray:
    """e^{i lam Im(alpha)} D(alpha)|0> through the dense matrix exponential.

    Independent of the series construction; the two must agree componentwise.
    """
    alpha = complex(alpha)
    if N is None:
        N = max(48, int(abs(alpha) ** 2 + 12.0 * math.sqrt(abs(alpha) ** 2 + 1.0) + 30.0))

    def build(M: int) -> np.ndarray:
        e0 = np.zeros(M, dtype=complex)
        e0[0] = 1.0
        a, a_dag, _ = operators.build_ladders(M)
        return operators.expm_apply(alpha * a_dag - np.conj(alpha) * a, e0)

    vec = operators.with_margin(build, N)
    return cmath.exp(1j * basis.lam * alpha.imag) * vec


def evolve(state: LambdaCoherent, t: float) -> LambdaCoherent:
    """Time evolution under the deformed oscillator: spectrum n + 1/2.

    Returns e^{-it/2} |alpha e^{-it}, lam>. The rotated state is rebuilt from
    its own normalization constant, which keeps it on the unit sphere even
    when Re(alpha) changes; rotating the coefficients by e^{-int} alone would
    leave the old constant in place and drift off normalization.
    """
    rotated = complex(state.alpha) * cmath.exp(-1j * t)
    fresh = lambda_coherent(rotated, state.basis)
    return LambdaCoherent(rotated, state.basis, fresh.expansion,
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


# Guard radii per (lam, phase, grid factor) and per lam. Both hold floats
# only, one entry per distinct lam a process asks about; the Gram matrices the
# scan reads are cached on (and freed with) their LambdaBasis, not here.
_RADIUS_CACHE: dict[tuple[float, float, float], float] = {}
_RADIUS_MIN_CACHE: dict[float, float] = {}
_SCAN_T_MAX = 800
_SCAN_WINDOW = 20
_SCAN_TOL = 1e-12


def _has_cauchy_run(flags: np.ndarray) -> bool:
    run = np.convolve(flags.astype(int), np.ones(_SCAN_WINDOW, dtype=int),
                      mode="valid")
    return bool(run.size) and bool(np.any(run == _SCAN_WINDOW))


def _scan_radii(basis: LambdaBasis, phases: list[float],
                factor: float) -> list[float]:
    """Convergence radius of the squeezed normalization series on each ray.

    Walks r over the grid 0.01 * factor^j <= 2 for all rays at once. At each
    r the partial sums S_T = ||sum_{n<=T} u_n |2n>_lam||^2, with
    u_n = (r e^{i phase})^n sqrt(L_2n (2n-1)!!/(2n)!!), pass when 20
    consecutive increments |S_T - S_{T-1}| fall below 1e-12 within the
    scanned terms; a term past the overflow guard fails every ray. Since
    every Gram entry is at most 1, |Delta S_T| <= |u_T| (2 sum_{k<T} |u_k| +
    |u_T|), a bound free of the phase: where it passes, every ray passes.
    Elsewhere each running ray takes the exact increments
    2 Re(conj(u_T) (L u)_T) + G_TT |u_T|^2, L the strict lower triangle of
    the even Gram block. A ray's radius is the last r that passes before its
    first failure, or 2 if none fails.
    """
    T = _SCAN_T_MAX
    work = basis if basis.max_n >= 2 * T else LambdaBasis(basis.lam, 2 * T)
    base_logs = 0.5 * (work.log_laguerre[0: 2 * T + 1: 2]
                       + _even_log_weights(T))
    k = np.arange(T + 1)
    G_even = gram(work, 2 * T + 1)[::2, ::2]
    lower = np.tril(G_even, -1)
    diag = np.diagonal(G_even)
    rays = [(np.cos(phase * k), np.sin(phase * k)) for phase in phases]
    radii = [2.0] * len(phases)
    running = list(range(len(phases)))
    last_ok = 0.0
    r = 0.01
    while r <= 2.0 and running:
        logs = base_logs + k * math.log(r)
        if float(np.max(logs)) > 300.0:
            failed = running  # past the overflow guard every ray fails
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                mags = np.exp(logs)
                csum = np.cumsum(mags) - mags
                failed = []
                if not _has_cauchy_run(mags * (2.0 * csum + mags) < _SCAN_TOL):
                    on_diag = diag * mags * mags
                    for i in running:
                        ur, ui = mags * rays[i][0], mags * rays[i][1]
                        inc = np.abs(2.0 * (ur * (lower @ ur) + ui * (lower @ ui))
                                     + on_diag)
                        if not _has_cauchy_run(inc < _SCAN_TOL):
                            failed.append(i)
        for i in failed:
            radii[i] = last_ok
        running = [i for i in running if i not in failed]
        last_ok = r
        r *= factor
    return radii


def radius_estimate(basis: LambdaBasis, phase: float = 0.0,
                    factor: float = 1.05) -> float:
    """Numerical convergence radius of the squeezed normalization series.

    Scans r upward on a geometric grid over [0.01, 2] and tests, for each r,
    whether the partial sums of ||sum_n (r e^{i phase})^n sqrt(L_2n
    (2n-1)!!/(2n)!!) |2n>_lam||^2 go Cauchy: a run of 20 consecutive
    increments below 1e-12 within 800 terms. Returns the last r that passes
    before the first failure, or the grid upper bound 2 if none fails.
    """
    key = (basis.lam, float(phase), float(factor))
    hit = _RADIUS_CACHE.get(key)
    if hit is None:
        hit = _RADIUS_CACHE[key] = _scan_radii(basis, [float(phase)],
                                               float(factor))[0]
    return hit


def radius_min(basis: LambdaBasis) -> float:
    """min of radius_estimate over 8 phase rays: the phase-uniform guard.

    Rays phi and 2 pi - phi give identical partial sums (the expansion rows
    are real), so only the 5 rays in [0, pi] are computed, in one scan.
    """
    hit = _RADIUS_MIN_CACHE.get(basis.lam)
    if hit is not None:
        return hit
    phases = [k * math.pi / 4.0 for k in range(5)]
    radii = _scan_radii(basis, phases, 1.05)
    _RADIUS_CACHE.update(((basis.lam, p, 1.05), radius)
                         for p, radius in zip(phases, radii))
    rmin = min(radii)
    _RADIUS_MIN_CACHE[basis.lam] = rmin
    return rmin


def _guard_xi(xi: complex, basis: LambdaBasis) -> float:
    rmin = radius_min(basis)
    if abs(xi) >= 0.95 * rmin:
        raise DomainError(
            f"|xi|={abs(xi):.4f} outside the guarded disk 0.95*R = "
            f"{0.95 * rmin:.4f} (estimated R({basis.lam}) = {rmin:.4f})",
            radius=rmin)
    return rmin


_SQUEEZED_TAIL = math.log(1e-20)


def _squeezed_terms(xi: complex, basis: LambdaBasis,
                    n_terms: int | None) -> int:
    """Even-index term count for the normalization series.

    Stops once the last diagonal term falls below 1e-20 of the running total
    (so the dropped coefficients are ~1e-10 of the norm, keeping the defining
    equation residual well under 1e-8) and the last five terms decrease.
    """
    if n_terms is not None:
        basis._check(2 * (n_terms - 1), "truncation")
        return n_terms
    lL = basis.log_laguerre
    T = 4
    log_axi = math.log(abs(xi))
    while True:
        if 2 * T > basis.max_n:
            raise operators.TruncationError(
                f"normalization tail still not negligible at the basis "
                f"horizon max_n={basis.max_n}; build a LambdaBasis with a "
                "larger max_n")
        w = _even_log_weights(T)
        diag_logs = 2.0 * np.arange(T + 1) * log_axi \
            + np.asarray(lL[0: 2 * T + 1: 2]) + w
        total = logsumexp_positive(diag_logs)
        if diag_logs[-1] - total < _SQUEEZED_TAIL \
                and np.all(np.diff(diag_logs[-5:]) < 0):
            return T + 1
        T = min(2 * T, (basis.max_n // 2) + 1)


def lambda_squeezed(xi: complex, basis: LambdaBasis,
                    n_terms: int | None = None) -> LambdaSqueezed:
    """Construct the deformed squeezed state C_0 sum_n d_n |2n>_lam.

    d_n = xi^n sqrt(L_2n (2n-1)!!/(2n)!!); C_0 normalizes through the Gram
    quadratic form. Guarded to |xi| < 0.95 R(lam) with R the scan minimum
    over phase rays.
    """
    xi = complex(xi)
    rmin = _guard_xi(xi, basis)
    if xi == 0:
        return LambdaSqueezed(xi, basis,
                              LambdaExpansion(basis, np.ones(1, dtype=complex)),
                              norm_constant=1.0)
    T = _squeezed_terms(xi, basis, n_terms) - 1
    n = np.arange(T + 1)
    logs = 0.5 * (np.asarray(basis.log_laguerre[0: 2 * T + 1: 2])
                  + _even_log_weights(T))
    u = xi ** n * np.exp(logs)
    G_even = gram(basis, 2 * T + 1)[::2, ::2]
    norm2 = float(np.real(np.vdot(u, _matvec(G_even, u))))
    if not (norm2 > 0 and math.isfinite(norm2)):
        raise DomainError(
            f"normalization series not summable at |xi|={abs(xi):.4f}",
            radius=rmin)
    c0 = 1.0 / math.sqrt(norm2)
    coeffs = np.zeros(2 * T + 1, dtype=complex)
    coeffs[2 * n] = c0 * u
    return LambdaSqueezed(xi, basis, LambdaExpansion(basis, coeffs),
                          norm_constant=c0)


def squeezed_norm_constant(xi: complex, basis: LambdaBasis,
                           n_terms: int | None = None) -> float:
    """C_0 from the explicit triple sum, free of any Laguerre evaluation.

    The series is sum_{m,n} conj(xi)^m xi^n w_m w_n g(2m, 2n) with
    w_n = sqrt((2n-1)!!/(2n)!!) and g the unnormalized overlap k-sum
    g(2m, 2n) = sum_k lam^{2k+2m-2n} sqrt((2n)!(2m)!)/[k!(2n-k)!(2m-2n+k)!];
    the sqrt(L) factors of the coefficients cancel the overlap normalization
    exactly, so this route shares no code with the Gram route it is checked
    against. Divergence is reported when the partial-sum increments stop
    decreasing.
    """
    xi = complex(xi)
    _guard_xi(xi, basis)
    if xi == 0:
        return 1.0
    lam = basis.lam
    T = _squeezed_terms(xi, basis, n_terms) - 1
    lf = log_factorial_table(4 * T)
    half_w = 0.5 * _even_log_weights(T)
    loglam = math.log(abs(lam)) if lam != 0.0 else None

    def log_g(mm: int, nn: int) -> float:
        # unnormalized overlap of |2mm>_lam, |2nn>_lam in logs, mm >= nn
        a, b = 2 * mm, 2 * nn
        if loglam is None:
            return 0.0 if a == b else -math.inf
        k = np.arange(b + 1)
        terms = (2 * k + a - b) * loglam + 0.5 * (lf[a] + lf[b]) \
            - lf[k] - lf[b - k] - lf[a - b + k]
        return logsumexp_positive(terms)

    kernel = np.empty((T + 1, T + 1))
    for mm in range(T + 1):
        for nn in range(mm + 1):
            v = math.exp(log_g(mm, nn) + half_w[mm] + half_w[nn])
            kernel[mm, nn] = kernel[nn, mm] = v
    w = xi ** np.arange(T + 1)
    total = 0.0
    increments = []
    for t in range(T + 1):
        delta = float(np.real(np.conj(w[t]) * np.dot(kernel[t, :t], w[:t]))) * 2.0 \
            + abs(w[t]) ** 2 * kernel[t, t]
        total += delta
        increments.append(abs(delta))
        if t >= 5 and total > 0:
            last = increments[-5:]
            if all(b >= a for a, b in zip(last, last[1:])) \
                    and last[-1] > 1e-13 * total:
                raise DomainError(
                    f"partial-sum increments non-decreasing at |xi|={abs(xi):.4f}: "
                    "normalization series diverging")
    return 1.0 / math.sqrt(total)


def squeezed_operator_form(xi: complex, basis: LambdaBasis,
                           N: int | None = None) -> np.ndarray:
    """C_0 e^{xi lam^2/2} expm(xi a_dag^2/2) D(xi lam) |0> in the standard basis.

    Operator route for the deformed squeezed state. It is parallel to both
    expm(xi a_dag_lam^2/2)|0> (the two products differ by the positive scalar
    exp(|xi lam|^2/2), since the displacement normalization is absorbed
    differently) and to the series construction; comparisons are made after
    normalization, where such scalars drop out.
    """
    xi = complex(xi)
    _guard_xi(xi, basis)
    lam = basis.lam
    if N is None:
        N = 200

    def build(M: int) -> np.ndarray:
        e0 = np.zeros(M, dtype=complex)
        e0[0] = 1.0
        a, a_dag, _ = operators.build_ladders(M)
        mu = xi * lam
        displaced = operators.expm_apply(mu * a_dag - np.conj(mu) * a, e0)
        return operators.expm_apply(0.5 * xi * (a_dag @ a_dag), displaced)

    vec = operators.with_margin(build, N)
    c0 = squeezed_norm_constant(xi, basis)
    return c0 * cmath.exp(0.5 * xi * lam * lam) * vec
