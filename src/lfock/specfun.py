"""Log-domain special functions shared by every formula in the package.

Factorials and the Laguerre values L_n^{(0)}(-lambda^2) appear inside
products that overflow double precision long before the final result does,
so everything here works with natural logs.
"""

from __future__ import annotations

import math

import numpy as np

# Exact integer factorials below this bound; log-gamma above.
_EXACT_FACT_MAX = 20

_LOG_FACT_SMALL = tuple(math.log(math.factorial(n)) if n > 1 else 0.0
                        for n in range(_EXACT_FACT_MAX + 1))


def log_factorial(n: int) -> float:
    """ln(n!), from the exact integer factorial for n <= 20, lgamma beyond."""
    if n < 0:
        raise ValueError("factorial argument must be nonnegative")
    if n <= _EXACT_FACT_MAX:
        return _LOG_FACT_SMALL[n]
    return math.lgamma(n + 1.0)


# Growing table of ln k! used by the vectorized series sums. Idempotent fill:
# entries never change once written, so concurrent refills are harmless.
_LOG_FACT_TABLE = np.array([log_factorial(n) for n in range(64)])


def log_factorial_table(n_max: int) -> np.ndarray:
    """Array of ln k! for k = 0..n_max (a view into a shared cache)."""
    global _LOG_FACT_TABLE
    if n_max >= _LOG_FACT_TABLE.size:
        grown = max(n_max + 1, 2 * _LOG_FACT_TABLE.size)
        _LOG_FACT_TABLE = np.array([log_factorial(n) for n in range(grown)])
    return _LOG_FACT_TABLE[: n_max + 1]


def _as_float(x: np.ndarray):
    """A 0-d result as a Python float, as scalar arguments get; else x."""
    return float(x) if np.ndim(x) == 0 else x


def logsumexp_positive(logs: np.ndarray, axis: int | None = None):
    """log(sum(exp(logs))) for an array of finite logs, as a float.

    With axis, the sums run along that axis and an array comes back; there
    -inf entries are padding, and each sum needs one finite entry. Those sums
    are running sums, which add a slice's terms in index order whatever its
    padding, so a slice sums to the same bits alone or in a padded batch.
    """
    if axis is None:
        mx = float(np.max(logs))
        return mx + math.log(float(np.exp(logs - mx).sum()))
    mx = logs.max(axis=axis, keepdims=True)
    total = np.take(np.cumsum(np.exp(logs - mx), axis=axis), -1, axis=axis)
    return np.squeeze(mx, axis) + np.log(total)


def laguerre0_log(n, lam: float):
    """ln L_n^{(0)}(-lambda^2), elementwise over an integer array n; a float
    for a scalar n.

    The series L_n(-lam^2) = sum_k C(n,k) lam^{2k}/k! has all-positive terms,
    so the log-sum is exact up to rounding; no cancellation occurs.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("order must be nonnegative")
    out = np.zeros(n.shape)
    if lam != 0.0:
        lf = log_factorial_table(int(n.max(initial=0)))
        k, top = np.arange(lf.shape[0]), n[..., None]
        kk = np.minimum(k, top)  # in range for every factorial; masked past n
        logs = lf[top] - lf[kk] - lf[top - kk] + 2.0 * kk * math.log(abs(lam)) - lf[kk]
        out = logsumexp_positive(np.where(k <= top, logs, -np.inf), -1)
    return _as_float(out)


def _laguerre_table(lam: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """ln L_n(-lambda^2) and rho_n = sqrt(L_{n-1}/L_n), n <= n_max, in O(n_max).

    With s_n = L_n/L_{n-1} - 1 the three-term recurrence (DLMF 18.9.1) takes
    the positive form s_1 = lam^2, s_{n+1} = (lam^2 + n s_n/(1+s_n))/(n+1).
    L_n(-lam^2) is the dominant solution, so the forward pass is stable, and
    ln L_n = sum_{k<=n} log1p(s_k) has only positive terms, summed with Kahan
    compensation, so it keeps full relative precision as lam -> 0 and about
    one ulp of the log at large n. The loop runs on Python floats and fills
    lists, one array each at the end. rho_0 = 1 by convention; laguerre0_log
    is the independent oracle.
    """
    x = lam * lam
    s, log_lag = [0.0], [0.0]
    sk = total = comp = 0.0
    log1p = math.log1p
    for k in range(1, n_max + 1):
        sk = (x + (k - 1) * sk / (1.0 + sk)) / k  # s_1 = x exactly
        y = log1p(sk) - comp
        t = total + y
        total, comp = t, (t - total) - y
        s.append(sk)
        log_lag.append(total)
    return np.array(log_lag), 1.0 / np.sqrt(1.0 + np.array(s))


def _laguerre_log_floor(lams, n_max: int) -> np.ndarray:
    """A lower bound on ln L_n(-lam^2), n <= n_max, one row per lam, in closed
    form and without the table: the largest term of the all-positive series
    L_n(-x) = sum_k C(n,k) x^k/k! (DLMF 18.5.12). The term ratio
    (n-k) x/(k+1)^2 crosses 1 near the root of k^2 + k x = n x, so that k,
    rounded, is taken; any k gives a lower bound."""
    x = np.square(np.asarray(lams, dtype=float))[:, None]
    n = np.arange(n_max + 1)
    lf = log_factorial_table(n_max)
    k = np.minimum(np.rint(0.5 * (np.sqrt(x * x + 4.0 * n * x) - x)), n).astype(int)
    return lf[n] - lf[n - k] - 2.0 * lf[k] + k * np.log(np.where(x > 0.0, x, 1.0))
