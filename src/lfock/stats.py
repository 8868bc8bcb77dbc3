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
from .fock import LambdaBasis, LambdaExpansion, _matvec, gram
from .specfun import log_factorial_table
from .states import (LambdaCoherent, LambdaSqueezed, _gaussian_amplitudes,
                     _gaussian_log_norm, _gaussian_moments)

_TAIL_TOL = 1e-12
_NORM_TOL = 1e-8
_LN2 = math.log(2.0)


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
    evaluated in log space. Poissonian at lam = 0. m is an int (float result)
    or an integer array (array result).
    """
    m = np.asarray(m)
    basis._check(int(np.min(m)))
    basis._check(int(np.max(m)))
    alpha = complex(alpha)
    r = abs(basis.lam + alpha)
    if r == 0.0:
        P = np.where(m == 0, math.exp(-abs(alpha) ** 2), 0.0)
    else:
        lf = log_factorial_table(int(np.max(m)))
        P = np.exp(2.0 * m * math.log(r) - abs(alpha) ** 2 - lf[m]
                   - basis.log_laguerre[m])
    return float(P) if P.ndim == 0 else P


def number_moments(state, cutoff: int | None = None) -> StatisticsReport:
    """Number moments <m>, <m^2>, Mandel Q in the state's declared basis.

    A plain array is read as a standard-basis vector: P(m) = |psi_m|^2 over
    its support. Anything else is read in the deformed basis,
    P(m) = |<m|_lam psi>|^2: a LambdaCoherent takes the closed form p_lambda
    of the exact eigenvector, an auto-truncated LambdaSqueezed takes the
    Gaussian kernel (squeezed_moments), and a LambdaExpansion c (or a state
    carrying one) takes |(G c)_m|^2, since <m|_lam psi> = (E E^T c)_m.
    Without a cutoff the sum runs until the m^2 P(m) tail drops below 1e-12
    (the second moment converges slower than the mean).
    """
    if isinstance(state, LambdaSqueezed) and state.n_terms is None:
        rep = squeezed_moments([state], "lambda", cutoff)[0]
        if rep is None:
            raise operators.TruncationError(
                "m^2 P(m) tail not below 1e-12 at the basis horizon; "
                "build a LambdaBasis with a larger max_n")
        return rep
    if isinstance(state, LambdaCoherent):
        basis, alpha = state.basis, state.alpha
        # P(k)/P(k-1) = |lam+alpha|^2 rho_k^2 / k falls with k: the weights
        # have a single peak, and the tail is only sought past it
        rising = abs(basis.lam + alpha) ** 2 * basis.rho[1:] ** 2 \
            >= np.arange(1, basis.max_n + 1)
        start = max(32, int(np.count_nonzero(rising)) + 9)

        def weights(lo: int, hi: int) -> np.ndarray:
            return p_lambda(np.arange(lo, hi), alpha, basis)
    else:
        expansion = getattr(state, "expansion", state)
        if isinstance(expansion, np.ndarray):
            v = np.asarray(expansion)
            hi = v.shape[0] if cutoff is None else min(cutoff, v.shape[0])
            return _report_from_probs(np.abs(v[:hi]) ** 2, "standard")
        if not isinstance(expansion, LambdaExpansion):
            raise TypeError("state must be a standard-basis array or carry a "
                            "LambdaExpansion")
        basis = expansion.basis
        c = np.asarray(expansion.coeffs, dtype=complex)
        d = c.shape[0]
        start = min(d + 32, basis.max_n + 1)

        def weights(lo: int, hi: int) -> np.ndarray:
            return np.abs(_matvec(gram(basis, max(hi, d))[lo:hi, :d], c)) ** 2
    if cutoff is not None:
        basis._check(cutoff - 1, "cutoff")
        return _report_from_probs(weights(0, cutoff), "lambda")
    hi = min(start, basis.max_n + 1)
    P = weights(0, hi)
    while True:
        m = np.arange(hi - 8, hi)
        if hi >= start and \
                float(np.max((m.astype(float) ** 2 + 1.0) * P[-8:])) < _TAIL_TOL:
            break
        if hi > basis.max_n:
            raise operators.TruncationError(
                "m^2 P(m) tail not below 1e-12 at the basis horizon; "
                "build a LambdaBasis with a larger max_n")
        nxt = min(hi + 32, basis.max_n + 1)
        P = np.concatenate([P, weights(hi, nxt)])
        hi = nxt
    return _report_from_probs(P, "lambda")


def _squeezed_frame_weights(xi: np.ndarray, basis: LambdaBasis,
                            cutoff: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Frame weights |g_m(xi, lam(1+xi))|^2 / (L_m ||g(xi, xi lam)||^2).

    One recurrence for all columns (one per xi). Without a cutoff the horizon
    doubles from 64 until every column's last 8 rows pass the tail rule
    m^2 P(m) < 1e-12 min(1, sum P): the absolute rule of number_moments for
    weights of order one, relative where all weights are tiny (they can
    start below 1e-12 and peak far out at large lam). Every column is summed
    to that common horizon. Returns (P, ok), ok False for a column that is
    still not settled at the basis horizon.
    """
    lam = basis.lam
    log_norm = _gaussian_log_norm(xi, xi * lam)

    def weights(M: int) -> np.ndarray:
        mant, expo = _gaussian_amplitudes(xi, lam * (1.0 + xi), M)
        with np.errstate(divide="ignore"):
            logs = np.log(mant.real ** 2 + mant.imag ** 2) + (2.0 * _LN2) * expo
        return np.exp(logs - basis.log_laguerre[:M, None] - log_norm)

    if cutoff is not None:
        basis._check(cutoff - 1, "cutoff")
        return weights(cutoff), np.ones(xi.shape, dtype=bool)
    M = min(64, basis.max_n + 1)
    while True:
        P = weights(M)
        m = np.arange(max(M - 8, 0), M, dtype=float)
        ok = np.max((m[:, None] ** 2 + 1.0) * P[-8:], axis=0) \
            < _TAIL_TOL * np.minimum(1.0, P.sum(axis=0))
        if ok.all() or M > basis.max_n:
            return P, ok
        M = min(2 * M, basis.max_n + 1)


def squeezed_moments(column, basis_tag: str = "lambda",
                     cutoff: int | None = None) -> list:
    """Number moments of auto-truncated squeezed states on one basis at once.

    psi = C_0 e^{xi lam^2/2} g(xi, xi lam), so the standard basis takes the
    closed-form <n> and Var n of g(xi, xi lam) (prob_sum is 1 exactly), and
    the lambda frame takes P(m) = |g_m(xi, lam(1+xi))|^2 / (L_m
    ||g(xi, xi lam)||^2) from one recurrence over the whole column. Returns
    one StatisticsReport per state, or None where the frame tail is not
    below 1e-12 at the basis horizon.
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
    P, ok = _squeezed_frame_weights(xi, basis, cutoff)
    m = np.arange(P.shape[0], dtype=float)[:, None]
    sums = zip(P.sum(axis=0), (m * P).sum(axis=0), (m * m * P).sum(axis=0))
    return [_report(float(p), float(mean), float(second), "lambda")
            if good else None for good, (p, mean, second) in zip(ok, sums)]


def _report_from_probs(P: np.ndarray, tag: str) -> StatisticsReport:
    m = np.arange(P.shape[0], dtype=float)
    return _report(float(np.sum(P)), float(np.sum(m * P)),
                   float(np.sum(m * m * P)), tag)


def _report(prob_sum: float, mean: float, second: float,
            tag: str) -> StatisticsReport:
    if mean > 0.0:
        q = (second - mean * mean) / mean - 1.0
        return StatisticsReport(mean, second, q, prob_sum, tag, True)
    return StatisticsReport(mean, second, math.nan, prob_sum, tag, False)


def _dense_quadratures(v: np.ndarray) -> QuadratureReport:
    v = np.asarray(v, dtype=complex)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > _NORM_TOL:
        raise ValueError(f"state norm {nrm!r} differs from 1 beyond 1e-8")
    N = v.shape[0]
    a, a_dag, _ = operators.build_ladders(max(N, 2))
    a = a[:N, :N]
    a_dag = a_dag[:N, :N]
    av = a @ v
    e_a = complex(np.vdot(v, av))
    e_a2 = complex(np.vdot(v, a @ av))
    e_ad = complex(np.vdot(v, a_dag @ v))
    e_ad2 = complex(np.vdot(v, a_dag @ (a_dag @ v)))
    e_n = complex(np.vdot(v, a_dag @ av))
    return _quadratures_from_expectations(e_a, e_ad, e_a2, e_ad2, e_n)


def _lambda_quadratures(expansion: LambdaExpansion) -> QuadratureReport:
    basis = expansion.basis
    d = expansion.support
    basis._check(d + 1, "raised support")
    D = d + 2
    c = np.zeros(D, dtype=complex)
    c[:d] = expansion.coeffs
    # G is real symmetric, so <psi|X|psi> = c^H G (X c) = (G c)^H (X c)
    Gc = _matvec(gram(basis, D), c)
    norm2 = float(np.real(np.vdot(c, Gc)))
    if abs(math.sqrt(max(norm2, 0.0)) - 1.0) > _NORM_TOL:
        raise ValueError(f"lambda-basis norm {math.sqrt(max(norm2, 0.0))!r} "
                         "differs from 1 beyond 1e-8")
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
    return _quadratures_from_expectations(e_a, e_ad, e_a2, e_ad2, e_n)


def _quadratures_from_expectations(e_a: complex, e_ad: complex, e_a2: complex,
                                   e_ad2: complex, e_n: complex) -> QuadratureReport:
    # x = (a + a_dag)/sqrt2, p = (a - a_dag)/(i sqrt2)
    var_x = 0.5 * float(np.real(1.0 + e_a2 + e_ad2 + 2.0 * e_n
                                - (e_a + e_ad) ** 2))
    var_p = 0.5 * float(np.real(1.0 - e_a2 - e_ad2 + 2.0 * e_n
                                + (e_a - e_ad) ** 2))
    return QuadratureReport(var_x, var_p, var_x * var_p)


def quadrature_variances(state, basis: LambdaBasis | None = None) -> QuadratureReport:
    """(Delta x)^2 and (Delta p)^2 for a normalized state.

    An auto-truncated LambdaSqueezed takes the Gaussian closed form
    1/2 + n_s +- Re s, i.e. var_x = |1+xi|^2 / (2(1-|xi|^2)) and
    var_p = |1-xi|^2 / (2(1-|xi|^2)), free of lam. Standard-basis arrays go
    through the dense ladder matrices; deformed expansions go through the
    closed ladder scalars contracted with the Gram matrix, with a_dag
    rewritten as (a_dag + lam) - lam. The routes must agree wherever they
    all apply.
    """
    if isinstance(state, LambdaSqueezed) and state.n_terms is None:
        _, ns, s, _ = _gaussian_moments(state.xi, 0j)
        var_x, var_p = float(0.5 + ns + s.real), float(0.5 + ns - s.real)
        return QuadratureReport(var_x, var_p, var_x * var_p)
    expansion = getattr(state, "expansion", state)
    if isinstance(expansion, LambdaExpansion):
        return _lambda_quadratures(expansion)
    if isinstance(expansion, np.ndarray):
        return _dense_quadratures(expansion)
    raise TypeError("state must be a standard-basis array or carry a "
                    "LambdaExpansion")
