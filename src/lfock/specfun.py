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


def logsumexp_positive(logs: np.ndarray) -> float:
    """log(sum(exp(logs))) for a nonempty array of finite logs."""
    mx = float(np.max(logs))
    return mx + math.log(float(np.exp(logs - mx).sum()))


def laguerre0_log(n: int, lam: float) -> float:
    """ln L_n^{(0)}(-lambda^2).

    The series L_n(-lam^2) = sum_k C(n,k) lam^{2k}/k! has all-positive terms,
    so the log-sum is exact up to rounding; no cancellation occurs.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if lam == 0.0 or n == 0:
        return 0.0
    lf = log_factorial_table(n)
    k = np.arange(n + 1)
    logs = lf[n] - lf[k] - lf[n - k] + 2.0 * k * math.log(abs(lam)) - lf[k]
    return logsumexp_positive(logs)


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
