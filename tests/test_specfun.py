"""Log-domain special functions against library and recurrence oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_laguerre

from lfock.specfun import (_laguerre_table, laguerre0_log, log_factorial,
                           log_factorial_table, logsumexp_positive)


@pytest.mark.parametrize("n", list(range(0, 21)) + [25, 50, 100, 170])
def test_log_factorial_roundtrip(n):
    # exp(ln n!) cannot be bit-exact once n! needs more than 53 bits; relative
    # closeness is the achievable contract
    assert math.exp(log_factorial(n)) == pytest.approx(math.factorial(n),
                                                       rel=1e-13)


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        log_factorial(-1)


def test_log_factorial_table_is_consistent_prefix():
    t = log_factorial_table(300)
    assert t.shape == (301,)
    assert t[0] == 0.0
    assert t[300] == pytest.approx(math.lgamma(301.0), rel=1e-15)
    t2 = log_factorial_table(10)
    assert np.array_equal(t2, t[:11])


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@pytest.mark.parametrize("n", [-1, 0] + list(range(1, 25)))
def test_log_double_factorial_matches_product(n):
    # the factorial-table splits the squeezed weights are built from:
    # (2m)!! = 2^m m! and (2m-1)!! = (2m)! / (2^m m!), with (-1)!! = 0!! = 1
    lf = log_factorial_table(25)
    m = (n + 1) // 2
    even = m * math.log(2.0) + lf[m]
    got = even if n % 2 == 0 else lf[2 * m] - even
    want = math.log(_double_factorial(n)) if n > 1 else 0.0
    assert got == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 4.0])
def test_laguerre_matches_three_term_recurrence(lam):
    # (n+1) L_{n+1} = (2n+1-x) L_n - n L_{n-1} at x = -lam^2; every quantity
    # is positive there, so the recurrence is an accurate independent oracle
    x = -lam * lam
    prev, cur = 1.0, 1.0 - x
    for n in range(1, 61):
        got = math.exp(laguerre0_log(n, lam))
        assert got == pytest.approx(cur, rel=1e-12), f"n={n}"
        prev, cur = cur, ((2 * n + 1 - x) * cur - n * prev) / (n + 1)


@pytest.mark.parametrize("lam", [1e-8, 0.3, 1.0, 5.0, 40.0, 50.0])
def test_laguerre_table_matches_mpmath_recurrence(lam):
    # the O(N) table over the whole sweep horizon against the three-term
    # recurrence carried at 40 digits: L_n and rho_n = sqrt(L_{n-1}/L_n) to
    # 5e-12 and 1e-14 relative, and ln L_n itself to 1e-13 relative, which
    # a log(L_n/L_{n-1}) form misses as lam -> 0 (its ratios round to 1)
    N = 1604
    log_lag, rho = _laguerre_table(lam, N)
    with mpmath.workdps(40):
        x = mpmath.mpf(lam) ** 2
        prev, cur = mpmath.mpf(1), 1 + x
        exact = [prev, cur]
        for n in range(1, N):
            prev, cur = cur, ((2 * n + 1 + x) * cur - n * prev) / (n + 1)
            exact.append(cur)
        want_log = np.array([float(mpmath.log(v)) for v in exact])
        want_rho = np.array([1.0] + [float(mpmath.sqrt(lo / hi))
                                     for lo, hi in zip(exact, exact[1:])])
    assert log_lag[0] == 0.0 and rho[0] == 1.0
    assert np.max(np.abs(log_lag - want_log)) <= 5e-12
    assert np.max(np.abs(log_lag[1:] - want_log[1:]) / want_log[1:]) <= 1e-13
    assert np.max(np.abs(rho - want_rho) / want_rho) <= 1e-14


def _numpy_scalar_table(lam, n_max):
    # the recurrence as it ran on numpy scalars read back from the arrays it
    # fills; the Python-float loop must reproduce it bit for bit
    x = lam * lam
    s = np.zeros(n_max + 1)
    log_lag = np.zeros(n_max + 1)
    total = comp = 0.0
    for k in range(1, n_max + 1):
        s[k] = x if k == 1 else (x + (k - 1) * s[k - 1] / (1.0 + s[k - 1])) / k
        y = math.log1p(s[k]) - comp
        total, comp = total + y, ((total + y) - total) - y
        log_lag[k] = total
    return log_lag, 1.0 / np.sqrt(1.0 + s)


@pytest.mark.parametrize("n_max", [1, 2, 197, 1604])
@pytest.mark.parametrize("lam", [0.0, 1e-8, 0.3, -1.7, 5.0, 40.0, -40.0])
def test_laguerre_table_is_bitwise_the_numpy_scalar_loop(lam, n_max):
    log_lag, rho = _laguerre_table(lam, n_max)
    want_log, want_rho = _numpy_scalar_table(lam, n_max)
    assert log_lag.shape == rho.shape == (n_max + 1,)
    assert log_lag.tobytes() == want_log.tobytes()
    assert rho.tobytes() == want_rho.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 30])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_laguerre_matches_scipy(n, lam):
    assert math.exp(laguerre0_log(n, lam)) == pytest.approx(
        eval_laguerre(n, -lam * lam), rel=1e-12)


def test_laguerre_lambda_zero_is_one():
    for n in (0, 1, 7, 200):
        assert laguerre0_log(n, 0.0) == 0.0
    assert np.array_equal(laguerre0_log(np.array([0, 1, 7, 200]), 0.0), np.zeros(4))


@pytest.mark.parametrize("lam", [0.3, 2.0, 40.0])
def test_laguerre0_log_array_drift_against_mpmath(lam):
    # the oracle's own drift: the array call over n <= 200 against the
    # three-term recurrence at 50 digits. Each k-sum rounds its log-terms,
    # which reach ~1e3 at lam 40, so ln L_n is held to 1e-13 scaled by
    # max(1, ln L_n), verify's scaling (worst measured 2.5e-14, lam 0.3);
    # every element must also be the scalar call's value
    n = np.arange(201)
    got = laguerre0_log(n, lam)
    with mpmath.workdps(50):
        x = mpmath.mpf(lam) ** 2
        prev, cur = mpmath.mpf(1), 1 + x
        exact = [prev, cur]
        for j in range(1, 200):
            prev, cur = cur, ((2 * j + 1 + x) * cur - j * prev) / (j + 1)
            exact.append(cur)
        want = np.array([float(mpmath.log(v)) for v in exact])
    assert np.max(np.abs(got - want) / np.maximum(1.0, want)) <= 1e-13
    np.testing.assert_allclose(got, [laguerre0_log(j, lam) for j in range(201)],
                               rtol=1e-15, atol=0.0)


def test_laguerre0_log_rejects_negative_order():
    for n in (-1, np.array([3, -1])):
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            laguerre0_log(n, 1.0)


@given(st.integers(0, 200), st.floats(-6.0, 6.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_laguerre_log_even_and_nonnegative(n, lam):
    val = laguerre0_log(n, lam)
    assert val == laguerre0_log(n, -lam)  # function of lam^2 only
    assert val >= 0.0  # L_n(-lam^2) >= 1


@given(st.integers(0, 150), st.floats(-4.0, 4.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_laguerre_log_monotone_in_order(n, lam):
    assert laguerre0_log(n + 1, lam) >= laguerre0_log(n, lam) - 1e-12


@given(st.lists(st.floats(-500.0, 500.0, allow_nan=False),
                min_size=1, max_size=40))
@settings(max_examples=200)
def test_logsumexp_matches_pairwise_reduce(logs):
    arr = np.array(logs)
    want = float(np.logaddexp.reduce(arr))
    got = logsumexp_positive(arr)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    # the 1-D call (the squeezed term rule's) keeps its arithmetic bit for bit
    mx = float(np.max(arr))
    assert isinstance(got, float)
    assert got == mx + math.log(float(np.exp(arr - mx).sum()))
    # along an axis, -inf padding adds nothing: each row sums as it would alone
    rows = np.full((2, arr.size + 3), -np.inf)
    rows[0, : arr.size], rows[1, :1] = arr, arr[:1]
    both = logsumexp_positive(rows, axis=1)
    assert both[0] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert both[1] == arr[0]
    assert np.array_equal(logsumexp_positive(rows.T, axis=0), both)
