"""Photon statistics and quadrature variances over either basis.

P_lambda(m) is the squared magnitude of the projection onto the deformed
bra <m|_lam. The deformed kets are not orthogonal, so these are frame
coefficients, not probabilities of a projective measurement: their sum is
reported as a diagnostic (prob_sum) and never used to renormalize, and the
moment sums feed the Mandel formula exactly as defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .fock import (LambdaBasis, LambdaExpansion, _gaussian_amplitudes,
                   _gaussian_log_norm, _gaussian_moments, _matvec, gram)
from .specfun import log_factorial_table

_TAIL_TOL = 1e-12
_NORM_TOL = 1e-8
_LN2 = math.log(2.0)
_LOG_TINY = -600.0  # frame weights all below e^_LOG_TINY are summed rescaled
_TAIL_UNSETTLED = ("m^2 P(m) tail not below 1e-12 at the basis horizon; "
                  "build a LambdaBasis with a larger max_n")


@dataclass(frozen=True)
class StatisticsReport:
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


@dataclass(frozen=True)
class QuadratureReport:
    var_x: float
    var_p: float
    product: float


def p_lambda(m: int | np.ndarray, alpha: complex,
             basis: LambdaBasis) -> float | np.ndarray:
    """P_lambda(m) = |<m|_lam |alpha, lam>|^2 in closed form, vectorized in m.

    The binomial theorem collapses the double sum over the expansion to
    e^{-|alpha|^2} |lam + alpha|^{2m} / (m! L_m), one all-positive term
    evaluated in log space (_frame_weights at xi = 0). Poissonian at lam = 0.
    m is an int (float result) or an integer array (array result).
    """
    m = np.asarray(m)
    basis._check(int(np.min(m)))
    P, shift, _ = _frame_weights(np.zeros(1, dtype=complex),
                                 np.array([alpha], dtype=complex), basis,
                                 int(np.max(m)) + 1)
    P = P[m, 0] * math.exp(shift[0])
    return float(P) if P.ndim == 0 else P


def number_moments(state, cutoff: int | None = None) -> StatisticsReport:
    """Number moments <m>, <m^2>, Mandel Q in the state's declared basis.

    A plain array is read as a standard-basis vector: P(m) = |psi_m|^2 over
    its support. Anything else is read in the deformed basis,
    P(m) = |<m|_lam psi>|^2: an exact Gaussian state takes _frame_weights,
    and a LambdaExpansion c (or a state carrying one) takes
    |(G c)_m|^2, since <m|_lam psi> = (E E^T c)_m. Without a cutoff the sum
    runs until the m^2 P(m) tail drops below 1e-12 (the second moment
    converges slower than the mean).
    """
    if getattr(state, "_gaussian", None) is not None:
        xi, mu, _ = np.array([state._gaussian], dtype=complex).T
        rep = _frame_moments(xi, mu, state.basis, cutoff)[0]
        if rep is None:
            raise operators.TruncationError(_TAIL_UNSETTLED)
        return rep
    expansion = getattr(state, "expansion", state)
    if isinstance(expansion, np.ndarray):
        hi = expansion.shape[0] if cutoff is None else min(cutoff, expansion.shape[0])
        return _reports((np.abs(expansion[:hi]) ** 2)[:, None], "standard")[0]
    if not isinstance(expansion, LambdaExpansion):
        raise TypeError("state must be a standard-basis array or carry a "
                        "LambdaExpansion")
    basis = expansion.basis
    c = np.asarray(expansion.coeffs, dtype=complex)
    d = c.shape[0]

    def weights(lo: int, hi: int) -> np.ndarray:
        return np.abs(_matvec(gram(basis, max(hi, d))[lo:hi, :d], c)) ** 2

    if cutoff is not None:
        basis._check(cutoff - 1, "cutoff")
        return _reports(weights(0, cutoff)[:, None], "lambda")[0]
    hi = min(d + 32, basis.max_n + 1)
    P = weights(0, hi)
    while True:
        m = np.arange(hi - 8, hi)
        if float(np.max((m.astype(float) ** 2 + 1.0) * P[-8:])) < _TAIL_TOL:
            break
        if hi > basis.max_n:
            raise operators.TruncationError(_TAIL_UNSETTLED)
        nxt = min(hi + 32, basis.max_n + 1)
        P = np.concatenate([P, weights(hi, nxt)])
        hi = nxt
    return _reports(P[:, None], "lambda")[0]


def _frame_weights(xi: np.ndarray, mu: np.ndarray, basis: LambdaBasis,
                   cutoff: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame weights |g_m(xi, mu+lam)|^2 / (L_m ||g(xi, mu)||^2) of the exact
    states phase g(xi, mu)/||g||, a column per entry of the xi and mu arrays:
    e^{-|mu|^2} |mu+lam|^{2m} / (m! L_m) where all xi are 0 (coherent states),
    else one g_m recurrence. A column whose weights all lie below e^-600 is
    divided by its largest, e^shift (shift 0 elsewhere). Without a cutoff the
    horizon doubles from 64 until every column's last 8 rows pass m^2 P(m) <
    1e-12 min(1, sum P), relative since at large lam all weights can be tiny.
    Returns (P, shift, ok), ok False where unsettled at the basis horizon.
    """
    lam = basis.lam
    log_norm = _gaussian_log_norm(xi, mu)
    # mu + lam, exact for both families: lam(1+xi) and lam + alpha
    frame = lam * (1.0 + xi) + (mu - xi * lam)
    lL = basis.log_laguerre

    def weights(M: int) -> tuple[np.ndarray, np.ndarray]:
        if xi.any():
            mant, expo = _gaussian_amplitudes(xi, frame, M)
            with np.errstate(divide="ignore"):
                logs = np.log(mant.real ** 2 + mant.imag ** 2) + (2.0 * _LN2) * expo
            logs = logs - lL[:M, None] - log_norm
        else:  # one row per column, transposed: each column sums pairwise
            m = np.arange(M)
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.where(m == 0, 0.0, 2.0 * m * np.log(np.abs(frame))[:, None])
            logs = (logs - log_norm[:, None] - log_factorial_table(M - 1) - lL[:M]).T
        peak = np.max(logs, axis=0)
        shift = np.where(peak < _LOG_TINY, peak, 0.0)
        return np.exp(logs - shift), shift

    M = min(64, basis.max_n + 1) if cutoff is None else cutoff
    basis._check(M - 1, "cutoff")
    while True:
        P, shift = weights(M)
        m = np.arange(max(M - 8, 0), M, dtype=float)
        total = P.sum(axis=0)
        ok = (cutoff is not None) | (np.max((m[:, None] ** 2 + 1.0) * P[-8:], axis=0)
              < _TAIL_TOL * np.where(shift < 0.0, total, np.minimum(1.0, total)))
        if ok.all() or M > basis.max_n:
            return P, shift, ok
        M = min(2 * M, basis.max_n + 1)


def _frame_moments(xi: np.ndarray, mu: np.ndarray, basis: LambdaBasis,
                   cutoff: int | None = None) -> list:
    """Frame-basis reports of _frame_weights' columns (None: unsettled)."""
    P, shift, ok = _frame_weights(xi, mu, basis, cutoff)
    return [rep if good else None
            for rep, good in zip(_reports(P, "lambda", np.exp(shift)), ok)]


def squeezed_moments(column, basis_tag: str = "lambda",
                     cutoff: int | None = None) -> list:
    """Number moments of auto-truncated squeezed states on one basis at once.

    The standard basis takes the closed-form <n> and Var n of g(xi, xi lam)
    (prob_sum is 1 exactly), the lambda frame one _frame_weights column per
    state. Returns a report per state, None where the frame tail is unsettled.
    """
    if not column:
        return []
    basis = column[0].basis
    xi = np.array([st.xi for st in column], dtype=complex)
    if basis_tag == "standard":
        a, ns, _, var = _gaussian_moments(xi, xi * basis.lam)
        mean = a.real ** 2 + a.imag ** 2 + ns
        return [StatisticsReport(float(mu), float(v + mu * mu),
                                 float(v / mu - 1.0) if mu > 0 else math.nan,
                                 1.0, "standard", bool(mu > 0))
                for mu, v in zip(mean, var)]
    return _frame_moments(xi, xi * basis.lam, basis, cutoff)


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
    root = np.sqrt(np.arange(1.0, w.shape[0]))
    down, up = np.append(root * w[1:], 0.0), np.insert(root * w[:-1], 0, 0.0)
    var = [float(np.linalg.norm(xw - np.vdot(w, xw).real * w)) ** 2 for xw in
           ((down + up) / math.sqrt(2.0), 1j * (up - down) / math.sqrt(2.0))]
    return QuadratureReport(var[0], var[1], var[0] * var[1])


def _lambda_quadratures(expansion: LambdaExpansion) -> QuadratureReport:
    basis = expansion.basis
    d = expansion.support
    basis._check(d + 1, "raised support")
    D = d + 2
    c = np.zeros(D, dtype=complex)
    c[:d] = expansion.coeffs
    # G is real symmetric, so <psi|X|psi> = c^H G (X c) = (G c)^H (X c)
    Gc = _matvec(gram(basis, D), c)
    nrm = math.sqrt(max(float(np.real(np.vdot(c, Gc))), 0.0))
    if abs(nrm - 1.0) > _NORM_TOL:
        raise ValueError(f"lambda-basis norm {nrm!r} differs from 1 beyond 1e-8")
    lam = basis.lam
    n = np.arange(D, dtype=float)
    # a |n>_lam = down[n-1] |n-1>_lam, (a_dag + lam) |n-1>_lam = up[n-1] |n>_lam
    down = np.sqrt(n[1:]) * basis.rho[1:D]
    up = np.sqrt(n[1:]) / basis.rho[1:D]
    e_a = complex(np.vdot(Gc[:-1], c[1:] * down))
    e_a2 = complex(np.vdot(Gc[:-2], c[2:] * down[1:] * down[:-1]))
    e_up = complex(np.vdot(Gc[1:], c[:-1] * up))
    e_up2 = complex(np.vdot(Gc[2:], c[:-2] * up[1:] * up[:-1]))
    e_num = complex(np.vdot(Gc, n * c))  # (a_dag + lam) a |n>_lam = n |n>_lam
    # Translate to the undeformed creation operator: a_dag = (a_dag + lam) - lam
    e_ad = e_up - lam
    e_ad2 = e_up2 - 2.0 * lam * e_up + lam * lam
    e_n = e_num - lam * e_a
    # x = (a + a_dag)/sqrt2, p = (a - a_dag)/(i sqrt2)
    var_x = 0.5 * float(np.real(1.0 + e_a2 + e_ad2 + 2.0 * e_n - (e_a + e_ad) ** 2))
    var_p = 0.5 * float(np.real(1.0 - e_a2 - e_ad2 + 2.0 * e_n + (e_a - e_ad) ** 2))
    return QuadratureReport(var_x, var_p, var_x * var_p)


def quadrature_variances(state, basis: LambdaBasis | None = None) -> QuadratureReport:
    """(Delta x)^2 and (Delta p)^2 for a normalized state.

    An exact Gaussian state takes the closed form 1/2 + n_s +- Re s, i.e.
    var_x = |1+xi|^2 / (2(1-|xi|^2)) and var_p = |1-xi|^2 / (2(1-|xi|^2)),
    free of lam and mu (1/2 for a coherent state). Standard-basis arrays take
    the centred norms ||(X - <X>) v||^2 over O(N) ladder shifts; deformed
    expansions go through the closed ladder scalars contracted with the Gram
    matrix, with a_dag rewritten as (a_dag + lam) - lam. The routes must
    agree wherever they all apply.
    """
    gauss = getattr(state, "_gaussian", None)
    if gauss is not None:
        _, ns, s, _ = _gaussian_moments(gauss[0], 0j)
        var_x, var_p = float(0.5 + ns + s.real), float(0.5 + ns - s.real)
        return QuadratureReport(var_x, var_p, var_x * var_p)
    expansion = getattr(state, "expansion", state)
    if isinstance(expansion, LambdaExpansion):
        return _lambda_quadratures(expansion)
    if isinstance(expansion, np.ndarray):
        return _dense_quadratures(expansion)
    raise TypeError("state must be a standard-basis array or carry a "
                    "LambdaExpansion")
