"""Photon statistics and quadrature variances over either basis.

P_lambda(m) is the squared magnitude of the projection onto the deformed
bra <m|_lam. The deformed kets are not orthogonal, so these are frame
coefficients, not probabilities of a projective measurement: their sum is
reported as a diagnostic (prob_sum) and never used to renormalize, and the
moment sums feed the Mandel formula exactly as defined. The Gram-route
quadratures (G c)^H (X c) that check these routes live in operators.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fock import (LambdaBasis, LambdaExpansion, TruncationError,
                   _gaussian_amplitudes, _gaussian_log_norm,
                   _gaussian_moments, _gram_rows, _ladder)
from .specfun import log_factorial_table

_TAIL_TOL = 1e-12
_NORM_TOL = 1e-8
_LN2 = math.log(2.0)
_LOG_TINY = -600.0  # frame weights all below e^_LOG_TINY are summed rescaled
# _tail_horizon: the bound it reaches, and the grid of s = (1/t - |xi|)/(1 - |xi|)
_LOG_HORIZON_TOL = math.log(1e-16)
_CHERNOFF_S = 1.0 / (1.0 + np.exp(-np.linspace(-12.0, 6.0, 32)))
_TAIL_UNSETTLED = ("m^2 P(m) tail not below 1e-12 at the basis horizon; "
                  "build a LambdaBasis with a larger max_n")


class StatisticsReport(NamedTuple):
    """Raw number moments and the Mandel Q they imply.

    mandel_q is NaN with q_defined False when the mean vanishes (vacuum),
    since the Mandel formula divides by the mean.
    """

    mean: float
    second_moment: float
    mandel_q: float
    prob_sum: float
    basis_tag: str
    q_defined: bool = True


class QuadratureReport(NamedTuple):
    var_x: float
    var_p: float
    product: float


def p_lambda(m: int | np.ndarray, alpha: complex,
             basis: LambdaBasis) -> float | np.ndarray:
    """P_lambda(m) = |<m|_lam |alpha, lam>|^2 in closed form, vectorized in m.

    The binomial theorem collapses the double sum over the expansion to
    e^{-|alpha|^2} |lam + alpha|^{2m} / (m! L_m), one all-positive term
    evaluated in log space (_frame_weights' closed form). Poissonian at
    lam = 0. m is an int (float result) or an integer array (array result).
    """
    m = np.asarray(m)
    basis._check(m)
    P, shift, _ = _frame_weights(np.zeros(1, dtype=complex),
                                 np.array([alpha], dtype=complex),
                                 [basis], int(np.max(m)) + 1)
    P = P[m, 0] * math.exp(shift[0])
    return float(P) if P.ndim == 0 else P


def number_moments(state) -> StatisticsReport:
    """Number moments <m>, <m^2>, Mandel Q in the state's declared basis.

    A plain array is read as a standard-basis vector: P(m) = |psi_m|^2 over
    its support. Anything else is read in the deformed basis,
    P(m) = |<m|_lam psi>|^2: an exact Gaussian state takes _frame_weights,
    and a LambdaExpansion c (or a state carrying one) takes |(G c)_m|^2,
    since <m|_lam psi> = (E E^T c)_m, over the whole basis horizon. Either
    deformed sum needs the m^2 P(m) tail below 1e-12 (the second moment
    converges slower than the mean): certified by _tail_horizon's bound for
    an exact state, tested on the horizon's last 8 rows for an expansion.
    """
    if getattr(state, "_gaussian", None) is not None:
        xi, mu, _ = np.array([state._gaussian], dtype=complex).T
        [[rep]] = _frame_moments(xi, mu, [state.basis], None)
        if rep is None:
            raise TruncationError(_TAIL_UNSETTLED)
        return rep
    expansion = getattr(state, "expansion", state)
    if isinstance(expansion, np.ndarray):
        return _reports((np.abs(expansion) ** 2)[:, None], "standard")[0]
    if not isinstance(expansion, LambdaExpansion):
        raise TypeError("state must be a standard-basis array or carry a "
                        "LambdaExpansion")
    basis = expansion.basis
    c = np.asarray(expansion.coeffs, dtype=complex)
    d, size = c.shape[0], basis.max_n + 1
    basis._check(d - 1)
    # G c over the basis horizon from the triangle rows G[m, m:] with m < d
    # (later rows meet only zero coefficients): each adds its dot product to
    # (G c)_m and c_m times itself below, over its band of nonzero entries
    gc = np.zeros(size, dtype=complex)
    for first in (0, 1):
        for m, row in zip(range(first, d, 2), _gram_rows(basis, size, first)):
            if m < 2:  # every row is exactly zero past its parity's first band
                b = int(np.flatnonzero(row)[-1]) + 1
            k = min(b, d - m)
            gc[m] += row[:k] @ c[m: m + k]
            band = row[1:b]
            gc[m + 1: m + 1 + band.shape[0]] += c[m] * band
    P = np.abs(gc) ** 2
    m = np.arange(max(size - 8, 0), size, dtype=float)
    if float(np.max((m * m + 1.0) * P[-8:])) >= _TAIL_TOL:
        raise TruncationError(_TAIL_UNSETTLED)
    return _reports(P[:, None], "lambda")[0]


def _frame_weights(xi: np.ndarray, mu: np.ndarray, bases: list,
                   cutoff: int | None):
    """Frame weights |g_m(xi, nu)|^2 / (L_m ||g(xi, mu)||^2), nu = mu + lam,
    of the exact states phase g(xi, mu)/||g||, for every (xi, mu) entry on
    every basis, in one pass over M rows.

    ln|g_m|^2 is 2m ln|nu| - ln m! in closed form when every xi is 0
    (coherent states), and comes from one g_m recurrence otherwise, which
    takes a single basis. M is the cutoff, or else _tail_horizon's M* plus
    8, at most the bases' shortest horizon. Returns (P, shift, ok) with P of
    shape (M, len(bases) * len(mu)), its column j * len(mu) + k holding
    bases[j] at entry k. A column whose weights all lie below e^-600 is
    divided by its largest, e^shift (shift 0 elsewhere). ok is False where a
    column's last 8 rows fail m^2 P(m) < 1e-12 min(1, sum P), relative since
    at large lam all weights can be tiny; past M* those rows are certified
    far below that, so the test decides only where the bound certifies no M
    below the horizon.
    """
    coherent = not xi.any()
    lams = [basis.lam for basis in bases]
    if coherent:
        nu = np.add.outer(lams, mu)
    else:  # mu + lam, exact for both families: lam(1+xi) and lam + alpha
        [lam] = lams
        nu = (lam * (1.0 + xi) + (mu - xi * lam))[None, :]
    M = cutoff
    if M is None:
        top = min(basis.max_n for basis in bases) + 1
        first, _ = _tail_horizon(xi, nu, np.array(
            [basis.log_laguerre[:top] for basis in bases]))
        M = min(top, first + 8)
    for basis in bases:
        basis._check(M - 1, "cutoff")
    log_norm = _gaussian_log_norm(xi, mu)
    if coherent:
        m = np.arange(M)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(m == 0, 0.0, 2.0 * m * np.log(np.abs(nu))[..., None])
        lL = np.array([basis.log_laguerre[:M] for basis in bases])[:, None]
        logs = logs - log_norm[:, None] - log_factorial_table(M - 1) - lL
        logs = logs.reshape(-1, M).T
    else:
        mant, expo = _gaussian_amplitudes(xi, nu[0], M)
        # ln|g_m|^2 = ln(re^2 + im^2) + 2 ln2 expo, in place beside the rows
        logs = mant.real ** 2
        logs += mant.imag ** 2
        del mant  # the rows die before the exponential
        with np.errstate(divide="ignore"):
            np.log(logs, out=logs)
        logs += (2.0 * _LN2) * expo
        del expo
        logs -= bases[0].log_laguerre[:M, None]
        logs -= log_norm
    peak = np.max(logs, axis=0)
    shift = np.where(peak < _LOG_TINY, peak, 0.0)
    P = np.exp(logs - shift)
    m = np.arange(max(M - 8, 0), M, dtype=float)
    total = P.sum(axis=0)
    ok = (np.max((m[:, None] ** 2 + 1.0) * P[-8:], axis=0)
          < _TAIL_TOL * np.where(shift < 0.0, total, np.minimum(1.0, total)))
    return P, shift, ok


def _tail_horizon(xi: np.ndarray, nu: np.ndarray, log_laguerre: np.ndarray):
    """(M*, ln b) for the states xi (one per column) at the entries of nu
    (one row per basis, whose ln L_n is that row of log_laguerre): the first
    M at which, for every entry, b, a Chernoff bound on the frame-weight
    tail relative to P(0) = 1/||g(xi, mu)||^2,

        sum_{m>=M} (m^2+1) P(m) / P(0)
            <= 2 M^2 t^-M ||g(t xi, sqrt(t) nu)||^2 / L_M = b,

    falls below 1e-16 (e^_LOG_HORIZON_TOL), and each entry's b there (the
    horizon log_laguerre covers and inf where no M does). P(0) <= 1, as
    g_0 = 1. The bound holds for 1 < t < 1/|xi| and M >= 2/ln t:
    t^{m/2} g_m(xi, nu) = g_m(t xi, sqrt(t) nu), whose norm
    _gaussian_log_norm gives in closed form, L_m >= L_M for m >= M, and
    m^2 t^-m falls for m >= 2/ln t. With every xi 0 the norm is
    e^{t |nu|^2} and the best t is M/|nu|^2 (or the least t admitting M);
    otherwise b is the least over 1/t = |xi| + (1-|xi|) s, s on a fixed
    grid in (0, 1). Either way b falls with M, and M* is found by bisection.
    """
    top = log_laguerre.shape[1]
    coherent = not xi.any()
    if coherent:
        with np.errstate(divide="ignore"):
            log_x = 2.0 * np.log(np.abs(nu))  # ln |nu|^2
    else:
        r = np.abs(xi)
        t = 1.0 / (r + (1.0 - r) * _CHERNOFF_S[:, None, None])
        lnt = np.log(t)
        need = 2.0 / lnt  # the least M each t admits
        lead = _gaussian_log_norm(t * xi, np.sqrt(t) * nu)

    def log_bound(M: int) -> np.ndarray:
        if coherent:  # nu = 0: ln t and so -ln b are inf, and P(m > 0) = 0
            u = np.maximum(math.log(M) - log_x, 2.0 / M)  # ln t
            b = np.maximum(M, np.exp(2.0 / M + log_x)) - M * u
        else:
            b = np.where(M >= need, lead - M * lnt, np.inf).min(axis=0)
        return b + (_LN2 + 2.0 * math.log(M)) - log_laguerre[:, M, None]

    lo, hi = 1, top
    while lo < hi:
        mid = (lo + hi) // 2
        if np.all(log_bound(mid) < _LOG_HORIZON_TOL):
            hi = mid
        else:
            lo = mid + 1
    return hi, log_bound(hi) if hi < top else np.full(nu.shape, np.inf)


def _frame_moments(xi: np.ndarray, mu: np.ndarray, bases: list,
                   cutoff: int | None) -> list:
    """Per basis, the frame-basis report of each exact state g(xi, mu)
    (None: unsettled), from one _frame_weights pass."""
    P, shift, ok = _frame_weights(xi, mu, bases, cutoff)
    reps = [rep if good else None for rep, good in
            zip(_reports(P, "lambda", np.exp(shift)), ok)]
    n = mu.shape[0]
    return [reps[j * n: (j + 1) * n] for j in range(len(bases))]


def squeezed_moments(column, basis_tag: str = "lambda") -> list:
    """Number moments of exact states on one basis, in one call per column.

    Every state, of either family, takes the kernel at its own (xi, mu): the
    closed-form <n> and Var n of g(xi, mu) in the standard basis (prob_sum is
    1 exactly), one _frame_weights column per state in the lambda frame,
    where the states must share one basis. A truncated series is measured by
    number_moments, one state at a time. Returns a report per state, None
    where the tail is unsettled at the basis horizon.
    """
    if not column:
        return []
    if any(st._gaussian is None for st in column):
        raise TypeError("squeezed_moments measures exact states; measure a "
                        "truncated series with number_moments")
    xi, mu, _ = np.array([st._gaussian for st in column], dtype=complex).T
    if basis_tag == "standard":
        a, ns, _, var = _gaussian_moments(xi, mu)
        mean = a.real ** 2 + a.imag ** 2 + ns
        return [StatisticsReport(float(m), float(v + m * m),
                                 float(v / m - 1.0) if m > 0 else math.nan,
                                 1.0, "standard", bool(m > 0))
                for m, v in zip(mean, var)]
    basis = column[0].basis
    for st in column:
        if (st.basis.lam, st.basis.max_n) != (basis.lam, basis.max_n):
            raise ValueError(f"exact states on {basis!r} and {st.basis!r} "
                             "share no basis; measure one column per basis")
    return _frame_moments(xi, mu, [basis], None)[0]


def _reports(P: np.ndarray, tag: str, scale=None) -> list:
    """A report per column of P, the weights being scale * P (Q stays exact
    where scale underflows)."""
    m = np.arange(P.shape[0], dtype=float)[:, None]
    sums = zip(np.ones(P.shape[1]) if scale is None else scale, P.sum(axis=0),
               (m * P).sum(axis=0), (m * m * P).sum(axis=0))
    return [StatisticsReport(float(s * mean), float(s * second),
                             float((second - s * mean * mean) / mean - 1.0)
                             if mean > 0.0 else math.nan,
                             float(s * p), tag, bool(mean > 0.0))
            for s, p, mean, second in sums]


def _dense_quadratures(v: np.ndarray) -> QuadratureReport:
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > _NORM_TOL:
        raise ValueError(f"state norm {nrm!r} differs from 1 beyond 1e-8")
    # the state v / ||v||, padded by one so that a_dag acts on it exactly;
    # Var X = ||(X - <X>) w||^2 is free of the cancellation in <X^2> - <X>^2
    w = np.append(v / nrm, 0.0)
    down, up = _ladder(w), _ladder(w, 0.0)
    var = [float(np.linalg.norm(xw - np.vdot(w, xw).real * w)) ** 2 for xw in
           ((down + up) / math.sqrt(2.0), 1j * (up - down) / math.sqrt(2.0))]
    return QuadratureReport(var[0], var[1], var[0] * var[1])


def quadrature_variances(state) -> QuadratureReport:
    """(Delta x)^2 and (Delta p)^2 for a normalized state.

    An exact Gaussian state takes the closed form 1/2 + n_s +- Re s, i.e.
    var_x = |1+xi|^2 / (2(1-|xi|^2)) and var_p = |1-xi|^2 / (2(1-|xi|^2)),
    free of lam and mu (1/2 for a coherent state). A standard-basis array
    takes the centred norms ||(X - <X>) v||^2 over O(N) ladder shifts, and
    any other deformed series (a truncated state or a LambdaExpansion) takes
    them on its T-operator image.
    """
    gauss = getattr(state, "_gaussian", None)
    if gauss is not None:
        _, ns, s, _ = _gaussian_moments(gauss[0], 0j)
        var_x, var_p = float(0.5 + ns + s.real), float(0.5 + ns - s.real)
        return QuadratureReport(var_x, var_p, var_x * var_p)
    if isinstance(state, np.ndarray):
        return _dense_quadratures(state)
    if isinstance(getattr(state, "expansion", state), LambdaExpansion):
        return _dense_quadratures(state.to_standard())
    raise TypeError("state must be a standard-basis array or carry a "
                    "LambdaExpansion")
