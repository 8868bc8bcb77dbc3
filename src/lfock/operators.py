"""The oracle module: the independent routes that check the production code.

Only `verify`, the tests and the demos import this module; no figure, state
dump or other command loads it. It holds dense truncated ladders and the
action of the matrix exponential, eigen residuals and the truncation
self-check; the expansion matrix E (E E^T is the coefficient-dot Gram route)
and the T-operator on one number state; the closed forms of the basis (the
overlap <m|n>_lam with its factorial sum, the ladder coefficients, the
lowering and raising scalars and the normal-ordered matrix elements), which
the Gram recurrence is checked against; the operator forms of both state
families, the Gram double sum of the coherent overlap and the triple sum for
the squeezed C_0; and the Gram-route quadratures (G c)^H (X c). The public
closed-form names of lfock resolve here.

Dense matrices only: N stays in the low hundreds, where sparsity buys nothing
and dense keeps the computations obviously correct. The exponential is a
numpy Taylor action, so no route here needs scipy. TruncationError lives in
fock and is importable from here too.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .fock import (DomainError, LambdaBasis, LambdaExpansion, TruncationError,
                   _exp_lowering, _matvec, gram)
from .specfun import _as_float, log_factorial_table, logsumexp_positive
from .states import (_even_log_weights, _guard_xi, _squeezed_terms,
                     lambda_coherent)
from .stats import _NORM_TOL, QuadratureReport

# with_margin's second truncation N + _MARGIN and its head tolerance
_MARGIN = 20
_MARGIN_TOL = 1e-9


def build_ladders(N: int, lam: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated ladder matrices (a, a_dag, a_dag + lam * I).

    Parameters
    ----------
    N : int
        Truncation dimension, at least 2.
    lam : float
        Deformation parameter of the shifted creation operator.

    Returns
    -------
    (a, a_dag, a_dag_lambda) : complex (N, N) arrays
        (a)_{m,n} = sqrt(n) delta_{m,n-1}; a_dag is its transpose;
        a_dag_lambda = a_dag + lam * identity.
    """
    if N < 2:
        raise ValueError("truncation must be at least 2")
    a = np.zeros((N, N), dtype=complex)
    ns = np.arange(1, N)
    a[ns - 1, ns] = np.sqrt(ns)
    a_dag = a.conj().T.copy()
    return a, a_dag, a_dag + lam * np.eye(N)


def number_operator(N: int) -> np.ndarray:
    """Diagonal a_dag a on the truncated space."""
    return np.diag(np.arange(N, dtype=complex))


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) of a complex array, bit for bit: numpy's own ord=None
    formula, without its dispatch."""
    x = x.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def expm_apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """e^M v, v a vector or columns: a fixed s = ceil(||M||_1) steps of the
    Taylor series of e^{M/s}, each ended once two consecutive terms fall
    below eps ||w||. Not the Al-Mohy & Higham action (SIAM J. Sci. Comput.
    33, 2011), which picks s and the degree from ||A^p||^{1/p} estimates:
    here the cost grows linearly with the norm."""
    norm = float(np.linalg.norm(M, 1))
    s = max(1, math.ceil(norm)) if math.isfinite(norm) else 1  # NaN: caught below
    A = np.asarray(M, dtype=complex) / s
    w = np.array(v, dtype=complex)
    eps = float(np.finfo(float).eps)
    for _ in range(s):
        term, size = w, math.inf
        for k in range(1, 60):  # ||A||_1 <= 1 keeps the k-th term below 1/k!
            term = (A @ term) / k
            w += term
            last, size = size, _norm(term)
            if max(last, size) <= eps * _norm(w):
                break
    if not np.all(np.isfinite(w)):
        raise TruncationError("matrix exponential did not converge; "
                              "truncation too small or input ill-conditioned")
    return w


def eigen_residual(M: np.ndarray, v: np.ndarray, z: complex) -> float:
    """|| M v - z v || / || v || in the Euclidean norm (standard basis)."""
    v = np.asarray(v, dtype=complex)
    den = float(np.linalg.norm(v))
    if den == 0.0:
        raise ValueError("residual undefined for the zero vector")
    return float(np.linalg.norm(M @ v - z * v)) / den


def with_margin(build, N: int) -> np.ndarray:
    """Truncation self-check: run build at N and N + 20, demand agreement.

    build(dim) must return a vector of length dim. The first N - 20
    components of the two runs must agree to 1e-9, otherwise the tail was not
    negligible and a TruncationError is raised. Returns the length-N result.
    """
    v1 = np.asarray(build(N), dtype=complex)
    v2 = np.asarray(build(N + _MARGIN), dtype=complex)
    head = max(N - _MARGIN, 0)
    err = float(np.max(np.abs(v1[:head] - v2[:head]))) if head else 0.0
    if err > _MARGIN_TOL:
        raise TruncationError(f"truncation N={N} unstable: head disagreement "
                              f"{err:.3e} > {_MARGIN_TOL:.1e}")
    return v1


def expansion_matrix(basis: LambdaBasis, size: int) -> np.ndarray:
    """Lower-triangular E with E[n, m] the |m> coefficient of |n>_lam.

    Row n is the lambda_ket(n) expansion; the diagonal exp(-log L_n / 2) is
    strictly positive, so E is an exact triangular factor of the Gram matrix.
    An oracle for the T-operator routes (to_lambda, to_standard): built fresh
    on each call and returned read-only.
    """
    basis._check(size - 1)
    E = np.zeros((size, size))
    for n in range(size):
        E[n, : n + 1] = basis._row(n)
    E.setflags(write=False)
    return E


def apply_t_operator(n: int, basis: LambdaBasis, N: int | None = None) -> np.ndarray:
    """e^{lam a}|n> / sqrt(L_n) by the finite exponential series.

    a is nilpotent on |n>, so the series ends after n+1 terms. Must agree with
    lambda_ket componentwise; the two routes share no arithmetic.
    """
    basis._check(n)
    if N is None:
        N = n + 1
    if n >= N:
        raise ValueError(f"truncation N={N} too small for index n={n}")
    v = np.zeros(N)
    v[n] = 1.0
    return _exp_lowering(basis.lam, v) * math.exp(-0.5 * float(basis.log_laguerre[n]))


def _log_overlap_sum(hi, lo, lam: float) -> np.ndarray:
    """ln sum_k |lam|^{2k+hi-lo} sqrt(hi! lo!) / [k! (lo-k)! (hi-lo+k)!] over
    integer arrays hi >= lo (-inf off the diagonal at lam 0): the factorial
    sum of the overlap <hi|lo>_lam (overlap_analytic) before its
    1/sqrt(L_hi L_lo). Each element's terms fill a row, -inf past k = lo."""
    hi, lo = np.asarray(hi)[..., None], np.asarray(lo)[..., None]
    if lam == 0.0:
        return np.where(hi == lo, 0.0, -np.inf)[..., 0]
    lf = log_factorial_table(int(hi.max()))
    k = np.arange(int(lo.max()) + 1)
    kk = np.minimum(k, lo)  # in range for every factorial; masked past lo
    logs = (2 * kk + hi - lo) * math.log(abs(lam)) \
        + 0.5 * (lf[hi] + lf[lo]) - lf[kk] - lf[lo - kk] - lf[hi - lo + kk]
    return logsumexp_positive(np.where(k <= lo, logs, -np.inf), -1)


def overlap_analytic(m, n, basis: LambdaBasis):
    """The inner product <m|n>_lam between deformed basis states, elementwise
    over broadcast integer arrays m, n (a float for scalars).

    Evaluates [L_m L_n]^{-1/2} sum_k lam^{2k+m-n} sqrt(n! m!) /
    [k! (n-k)! (m-n+k)!] over all k with nonnegative factorial arguments.
    Symmetric in (m, n); exactly 1 on the diagonal; delta_{mn} at lam = 0.
    """
    basis._check(m)
    basis._check(n)
    # The sum is symmetric under (m, n) swap; canonicalize so results are
    # bitwise symmetric too.
    hi, lo = np.maximum(m, n), np.minimum(m, n)
    lL = basis.log_laguerre
    mag = np.exp(_log_overlap_sum(hi, lo, basis.lam) - 0.5 * (lL[hi] + lL[lo]))
    # every term carries lam^(2k + hi - lo): the sign of lam when hi - lo is odd
    mag = np.where((hi - lo) % 2, np.copysign(mag, basis.lam), mag)
    return _as_float(np.where(m == n, 1.0, mag))


def ladder_down(n: int, basis: LambdaBasis) -> tuple[float, int]:
    """Coefficient and index in a|n>_lam = coef |n-1>_lam.

    For n = 0 returns the zero-vector marker (0.0, -1) since a|0>_lam = 0.
    """
    basis._check(n)
    if n == 0:
        return 0.0, -1
    return math.sqrt(n) * float(basis.rho[n]), n - 1


def ladder_up(n: int, basis: LambdaBasis) -> tuple[float, int]:
    """Coefficient and index in (a_dag + lam)|n>_lam = coef |n+1>_lam."""
    basis._check(n)
    basis._check(n + 1, "raised index")
    return math.sqrt(n + 1.0) / float(basis.rho[n + 1]), n + 1


def lowering_scalar(n, k, basis: LambdaBasis):
    """Scalar s with a^k |n>_lam = s |n-k>_lam (0 if k > n), elementwise over
    broadcast integer arrays n, k (a float for scalars)."""
    basis._check(n)
    j = np.where(k > n, n, n - k)  # n - k; n where k > n, as s is 0 there
    lf, lL = log_factorial_table(int(np.max(n))), basis.log_laguerre
    s = np.exp(0.5 * ((lf[n] - lf[j]) + (lL[j] - lL[n])))
    return _as_float(np.where(k > n, 0.0, s))


def raising_scalar(n, k, basis: LambdaBasis):
    """Scalar u with (a_dag + lam)^k |n>_lam = u |n+k>_lam, elementwise over
    broadcast integer arrays n, k (a float for scalars)."""
    top = n + k
    basis._check(top, "raised index")
    lf, lL = log_factorial_table(int(np.max(top))), basis.log_laguerre
    return _as_float(np.exp(0.5 * ((lf[top] - lf[n]) + (lL[top] - lL[n]))))


def matel_normal_ordered(m, n, r, k, basis: LambdaBasis):
    """<m| (a_dag + lam)^r a^k |n> between deformed basis states, elementwise
    over broadcast integer arrays m, n, r, k (a float for scalars).

    The ladder relations take |n>_lam to lowering_scalar(n, k) |n-k>_lam
    and then to raising_scalar(n-k, r) |n-k+r>_lam, so the element is those
    two scalars times overlap_analytic(m, n-k+r); 0 when k > n.
    """
    basis._check(m)
    basis._check(n)
    dead = np.greater(k, n)  # a^k|n>_lam = 0; j + r = n keeps the rest in range
    j, r = np.where(dead, n, n - k), np.where(dead, 0, r)
    return lowering_scalar(n, k, basis) * raising_scalar(j, r, basis) \
        * overlap_analytic(m, j + r, basis)


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
    G = gram(basis, max(sa.truncation, sb.truncation))
    return complex(np.vdot(sa.expansion.coeffs, _matvec(
        G[: sa.truncation, : sb.truncation], sb.expansion.coeffs)))


def displaced_form(alpha: complex, basis: LambdaBasis,
                   N: int | None = None) -> np.ndarray:
    """e^{i lam Im(alpha)} D(alpha)|0> through the dense matrix exponential.

    Independent of the series construction; the two must agree componentwise.
    """
    alpha = complex(alpha)
    if N is None:
        N = max(48, int(abs(alpha) ** 2 + 12.0 * math.sqrt(abs(alpha) ** 2 + 1.0) + 30.0))
    vec = with_margin(lambda M: _displaced_vacuum(alpha, build_ladders(M)), N)
    return cmath.exp(1j * basis.lam * alpha.imag) * vec


def _displaced_vacuum(mu: complex, ladders: tuple) -> np.ndarray:
    """D(mu)|0> through the dense matrix exponential, on the ladders
    (a, a_dag, n) of build_ladders."""
    a, a_dag, _ = ladders
    e0 = np.zeros(a.shape[0], dtype=complex)
    e0[0] = 1.0
    return expm_apply(mu * a_dag - np.conj(mu) * a, e0)


def squeezed_norm_constant(xi: complex, basis: LambdaBasis) -> float:
    """C_0 from the explicit triple sum, free of any Laguerre evaluation.

    The series is sum_{m,n} conj(xi)^m xi^n w_m w_n g(2m, 2n) with
    w_n = sqrt((2n-1)!!/(2n)!!) and g the unnormalized overlap k-sum
    g(2m, 2n) = sum_k lam^{2k+2m-2n} sqrt((2n)!(2m)!)/[k!(2n-k)!(2m-2n+k)!]
    (specfun._log_overlap_sum, one kernel row per call); the sqrt(L) factors of
    the coefficients cancel the overlap normalization exactly, so this route
    shares no code with the Gram route or the Gaussian kernel it is checked
    against. Divergence is reported when the partial-sum increments stop
    decreasing.
    """
    xi = complex(xi)
    _guard_xi(xi, basis)
    T = _squeezed_terms(xi, basis, None) - 1
    half_w = 0.5 * _even_log_weights(T)
    kernel = np.empty((T + 1, T + 1))
    for mm in range(T + 1):  # row mm: g(2mm, 2nn) for every nn <= mm at once
        nn = np.arange(mm + 1)
        kernel[mm, nn] = kernel[nn, mm] = np.exp(
            _log_overlap_sum(2 * mm, 2 * nn, basis.lam) + half_w[mm] + half_w[nn])
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
        ladders = build_ladders(M)
        displaced = _displaced_vacuum(xi * lam, ladders)
        return expm_apply(0.5 * xi * (ladders[1] @ ladders[1]), displaced)

    vec = with_margin(build, N)
    c0 = squeezed_norm_constant(xi, basis)
    return c0 * cmath.exp(0.5 * xi * lam * lam) * vec


def _lambda_quadratures(expansion: LambdaExpansion) -> QuadratureReport:
    """Quadrature variances by the Gram route, <psi|X|psi> = (G c)^H (X c)."""
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
