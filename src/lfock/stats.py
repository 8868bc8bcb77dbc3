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
from dataclasses import dataclass

import numpy as np

from .fock import (LambdaBasis, LambdaExpansion, TruncationError,
                   _gaussian_log_norm, _gaussian_moments, _gaussian_rows,
                   _ladder, _matvec, gram)
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
    evaluated in log space (_frame_weights' closed form). Poissonian at
    lam = 0. m is an int (float result) or an integer array (array result).
    """
    m = np.asarray(m)
    basis._check(int(np.min(m)))
    basis._check(int(np.max(m)))
    [(_, P, shift, _)] = _frame_weights(np.zeros(1, dtype=complex),
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
    since <m|_lam psi> = (E E^T c)_m. The deformed sum runs until the
    m^2 P(m) tail drops below 1e-12 (the second moment converges slower than
    the mean).
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
    d = c.shape[0]
    hi = min(d + 32, basis.max_n + 1)
    G = gram(basis, hi)  # gram(b, S) is gram(b, S')[:S, :S] bit for bit

    def weights(lo: int, hi: int) -> np.ndarray:
        nonlocal G
        if hi > G.shape[0]:  # double, so the tail rebuilds G only log times
            G = gram(basis, min(max(2 * G.shape[0], hi), basis.max_n + 1))
        return np.abs(_matvec(G[lo:hi, :d], c)) ** 2

    P = weights(0, hi)
    while True:
        m = np.arange(hi - 8, hi)
        if float(np.max((m.astype(float) ** 2 + 1.0) * P[-8:])) < _TAIL_TOL:
            break
        if hi > basis.max_n:
            raise TruncationError(_TAIL_UNSETTLED)
        nxt = min(hi + 32, basis.max_n + 1)
        P = np.concatenate([P, weights(hi, nxt)])
        hi = nxt
    return _reports(P[:, None], "lambda")[0]


def _frame_weights(xi: np.ndarray, mu: np.ndarray, bases: list,
                   cutoff: int | None):
    """Frame weights |g_m(xi, mu+lam)|^2 / (L_m ||g(xi, mu)||^2) of the exact
    states phase g(xi, mu)/||g||, for every (xi, mu) entry on every basis.

    ln|g_m|^2 is 2m ln|lam+mu| - ln m! in closed form when every xi is 0
    (coherent states), and comes from one g_m recurrence otherwise, which
    takes a single basis and, when M doubles, continues from its last row
    (fock._gaussian_rows) instead of restarting at g_0. Each basis has its
    own horizon M: the cutoff, or from 64 doubling up to max_n + 1 until the
    last 8 rows of each of its columns pass m^2 P(m) < 1e-12 min(1, sum P),
    relative since at large lam all weights can be tiny. Bases that share M
    are evaluated as one array with a contiguous row of M weights per
    (basis, entry), so every sum runs over the same M contiguous rows. A
    column whose weights all lie below e^-600 is divided by its largest,
    e^shift (shift 0 elsewhere). Yields (rows, P, shift, ok) per evaluated
    group: P is (M, len(rows) * len(mu)), its column j * len(mu) + k
    holding bases[rows[j]] at entry k, and ok is False where unsettled. A
    basis unsettled below its horizon comes back in a later group at twice
    M; its last group holds its weights.
    """
    log_norm = _gaussian_log_norm(xi, mu)
    coherent = not xi.any()
    if not coherent:
        [lam] = [basis.lam for basis in bases]
        # mu + lam, exact for both families: lam(1+xi) and lam + alpha
        amplitudes = _gaussian_rows(xi, lam * (1.0 + xi) + (mu - xi * lam))
        next(amplitudes)

    def logs(rows: list, M: int) -> np.ndarray:  # its arrays die before the exp
        if coherent:
            m = np.arange(M)
            frame = np.add.outer([bases[i].lam for i in rows], mu)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(m == 0, 0.0,
                               2.0 * m * np.log(np.abs(frame))[..., None])
            lL = np.array([bases[i].log_laguerre[:M] for i in rows])[:, None]
            out = out - log_norm[:, None] - log_factorial_table(M - 1) - lL
            return out.reshape(-1, M).T
        mant, expo = amplitudes.send(M)  # resumed from the last horizon's rows
        # ln|g_m|^2 = ln(re^2 + im^2) + 2 ln2 expo, in place beside the rows
        out = mant.real ** 2
        out += mant.imag ** 2
        with np.errstate(divide="ignore"):
            np.log(out, out=out)
        out += (2.0 * _LN2) * expo
        out -= bases[0].log_laguerre[:M, None]
        out -= log_norm
        return out

    horizon = {}
    for i, basis in enumerate(bases):
        horizon[i] = min(64, basis.max_n + 1) if cutoff is None else cutoff
        basis._check(horizon[i] - 1, "cutoff")
    while horizon:
        for M in sorted(set(horizon.values())):
            rows = [i for i, h in horizon.items() if h == M]
            P, shift, ok = _scaled_weights(logs(rows, M))
            for i, done in zip(rows, ok.reshape(len(rows), -1).all(axis=1)):
                if _final(done, M, cutoff, bases[i]):
                    del horizon[i]
                else:
                    horizon[i] = min(2 * M, bases[i].max_n + 1)
            if not (coherent or horizon):
                amplitudes.close()  # its rows die before the caller sums P
            yield rows, P, shift, ok


def _final(done: bool, M: int, cutoff: int | None, basis: LambdaBasis) -> bool:
    """Whether a basis evaluated at horizon M leaves _frame_weights: its
    columns settled, M is the cutoff, or M reached its basis horizon."""
    return done or M == cutoff or M > basis.max_n


def _scaled_weights(logs: np.ndarray):
    """(P, shift, ok) from the logs of frame weights, rows m along axis 0:
    P = exp(logs - shift) and each column's tail test, as _frame_weights
    documents them."""
    peak = np.max(logs, axis=0)
    shift = np.where(peak < _LOG_TINY, peak, 0.0)
    P = np.exp(logs - shift)
    M = P.shape[0]
    m = np.arange(max(M - 8, 0), M, dtype=float)
    total = P.sum(axis=0)
    ok = (np.max((m[:, None] ** 2 + 1.0) * P[-8:], axis=0)
          < _TAIL_TOL * np.where(shift < 0.0, total, np.minimum(1.0, total)))
    return P, shift, ok


def _frame_moments(xi: np.ndarray, mu: np.ndarray, bases: list,
                   cutoff: int | None) -> list:
    """Per basis, the frame-basis report of each exact state g(xi, mu)
    (None: unsettled), from the last _frame_weights group holding it; a
    group in which no basis is final builds no reports."""
    out = [None] * len(bases)
    for rows, P, shift, ok in _frame_weights(xi, mu, bases, cutoff):
        final = [_final(done, P.shape[0], cutoff, bases[i]) for i, done
                 in zip(rows, ok.reshape(len(rows), -1).all(axis=1))]
        if not any(final):
            continue  # every basis comes back at twice M
        # the whole group's P, so each column sums as it does in the group
        reps = [rep if good else None for rep, good in
                zip(_reports(P, "lambda", np.exp(shift)), ok)]
        for j, i in enumerate(rows):
            if final[j]:
                out[i] = reps[j * mu.shape[0]: (j + 1) * mu.shape[0]]
    return out


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
