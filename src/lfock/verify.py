"""Self-verification: closed forms against the dense brute-force route.

Each suite exercises one layer of analytic results against an independent
computation (dense truncated matrices, raw coefficient dot products, or a
known limit) and reports the worst error seen. `lfock verify all` runs every
suite and fails loudly if any check exceeds its tolerance.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import families, fock, operators, specfun, states, stats
from .fock import LambdaBasis


class Check(NamedTuple):
    name: str
    err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.err <= self.tol


class SuiteReport(NamedTuple):
    name: str
    checks: list

    @property
    def max_err(self) -> float:
        return max((c.err for c in self.checks), default=0.0)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _scaled_err(got, want) -> float:
    """max |got - want| / max(1, |want|), elementwise over arrays."""
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _normalized_mismatch(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |<u, v>| / (||u|| ||v||), insensitive to phase and scale."""
    n = min(u.shape[0], v.shape[0])
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    return 1.0 - abs(np.vdot(u[:n], v[:n])) / (nu * nv)


def _suite_overlaps() -> list[Check]:
    out = []
    n_hi = 25
    for lam in (0.3, 1.0, 2.0):
        basis = LambdaBasis(lam, 64)
        E = operators.expansion_matrix(basis, n_hi + 1)
        G_dot = E @ E.T
        idx = np.arange(n_hi + 1)
        G_an = operators.overlap_analytic(idx[:, None], idx[None, :], basis)
        G_rec = fock.gram(basis, n_hi + 1)
        out.append(Check(f"norms lam={lam:g}",
                         float(np.max(np.abs(np.linalg.norm(E, axis=1) - 1.0))),
                         1e-12))
        t_err = max(float(np.max(np.abs(
            operators.apply_t_operator(n, basis, n_hi + 1)
            - fock.lambda_ket(n, basis, n_hi + 1)))) for n in range(n_hi + 1))
        out.append(Check(f"series vs T-operator lam={lam:g}", t_err, 1e-12))
        c = np.cos(np.arange(n_hi + 1.0)) + 0.5j  # an arbitrary expansion
        out.append(Check(f"T-operator image vs E^T c lam={lam:g}", float(np.max(
            np.abs(fock.LambdaExpansion(basis, c).to_standard() - E.T @ c))), 1e-12))
        out.append(Check(f"analytic vs dot lam={lam:g}",
                         float(np.max(np.abs(G_an - G_dot))), 1e-12))
        out.append(Check(f"recurrence vs analytic lam={lam:g}",
                         float(np.max(np.abs(G_rec - G_an))), 1e-12))
        out.append(Check(f"symmetry lam={lam:g}",
                         float(np.max(np.abs(G_an - G_an.T))), 0.0))
        series = specfun.laguerre0_log(np.arange(basis.max_n + 1), lam)
        out.append(Check(f"Laguerre table vs laguerre0_log lam={lam:g}",
                         float(np.max(np.abs(basis.log_laguerre - series)
                                      / np.maximum(1.0, series))), 1e-12))
    return out


def _suite_ladders() -> list[Check]:
    out = []
    N = 34
    for lam in (0.5, 1.5):
        basis = LambdaBasis(lam, 64)
        a, _, adl = operators.build_ladders(N, lam)
        a = a.real
        adl = adl.real
        kets = [fock.lambda_ket(n, basis, N) for n in range(28)]
        down = up = num = 0.0
        for n in range(26):
            coef, idx = operators.ladder_down(n, basis)
            target = coef * kets[idx] if idx >= 0 else np.zeros(N)
            down = max(down, float(np.linalg.norm(a @ kets[n] - target)))
            coef, idx = operators.ladder_up(n, basis)
            up = max(up, float(np.linalg.norm(adl @ kets[n] - coef * kets[idx])))
            num = max(num, float(np.linalg.norm(adl @ (a @ kets[n]) - n * kets[n])))
        out.append(Check(f"lowering lam={lam:g}", down, 1e-12))
        out.append(Check(f"raising lam={lam:g}", up, 1e-12))
        out.append(Check(f"number eigenvalue lam={lam:g}", num, 1e-12))
        prods = []
        for n in range(1, 26):
            prod = 1.0
            for j in range(n, 0, -1):
                prod *= operators.ladder_down(j, basis)[0]
            prods.append(prod)
        ns = np.arange(1, 26)
        out.append(Check(f"iterated lowering lam={lam:g}", _scaled_err(
            np.array(prods), operators.lowering_scalar(ns, ns, basis)), 1e-12))
    return out


def _suite_matel() -> list[Check]:
    out = []
    hi = 8
    N = hi + 8
    m, n = np.arange(hi + 1)[:, None], np.arange(hi + 1)[None, :]
    for lam in (0.3, 1.0):
        basis = LambdaBasis(lam, 64)
        a, _, adl = operators.build_ladders(N, lam)
        apow = [np.linalg.matrix_power(a.real, k) for k in range(3)]
        upow = [np.linalg.matrix_power(adl.real, k) for k in range(3)]
        kets = np.array([fock.lambda_ket(j, basis, N) for j in range(hi + 1)])
        worst = {"creation": 0.0, "annihilation": 0.0, "normal ordered": 0.0}
        for k in range(3):  # one array of elements per (r, k), each against
            # the dense kets @ U^r @ A^k @ kets.T
            worst["creation"] = max(worst["creation"], _scaled_err(
                operators.matel_normal_ordered(m, n, k, 0, basis), kets @ upow[k] @ kets.T))
            worst["annihilation"] = max(worst["annihilation"], _scaled_err(
                operators.matel_normal_ordered(m, n, 0, k, basis), kets @ apow[k] @ kets.T))
            for r in range(3):
                worst["normal ordered"] = max(worst["normal ordered"], _scaled_err(
                    operators.matel_normal_ordered(m, n, r, k, basis),
                    kets @ upow[r] @ apow[k] @ kets.T))
        for label, err in worst.items():
            out.append(Check(f"{label} lam={lam:g}", err, 1e-12))
    return out


def _suite_coherent() -> list[Check]:
    out = []
    for lam in (0.5, 2.0):
        basis = LambdaBasis(lam, 128)
        for alpha in (1.0 + 0j, 1.0 + 1.0j):
            tag = f"lam={lam:g} alpha={alpha:g}"
            st = states.lambda_coherent(alpha, basis)
            vec = st.to_standard()
            N = vec.shape[0]
            disp = operators.displaced_form(alpha, basis, N)
            out.append(Check(f"displaced identity {tag}",
                             _normalized_mismatch(vec, disp), 1e-10))
            out.append(Check(f"Gaussian kernel vs frame series {tag}", float(np.max(
                np.abs(vec - st.expansion.to_standard()))), 1e-10))
            a, _, _ = operators.build_ladders(N)
            out.append(Check(f"eigen residual {tag}",
                             operators.eigen_residual(a, vec, alpha), 1e-9))
        got = operators.coherent_overlap(1.0, -1.0, basis)
        out.append(Check(f"overlap kernel lam={lam:g}",
                         abs(got - math.exp(-2.0)), 1e-9))
        beta = 0.7 + 0.4j
        want = cmath.exp(1j * lam * (beta.imag - 0.0)) \
            * cmath.exp(1.0 * beta - 0.5 - 0.5 * abs(beta) ** 2)
        out.append(Check(f"overlap kernel complex lam={lam:g}",
                         abs(operators.coherent_overlap(1.0, beta, basis) - want),
                         1e-9))
        st = states.lambda_coherent(1.0, basis)
        for t in (0.1, math.pi):
            ev = states.evolve(st, t)
            vec = ev.to_standard()
            a, _, _ = operators.build_ladders(vec.shape[0])
            out.append(Check(f"evolve residual lam={lam:g} t={t:g}",
                             operators.eigen_residual(a, vec, ev.alpha), 1e-9))
    return out


def _suite_squeezed() -> list[Check]:
    out = []
    for lam in (0.0, 0.5, 1.0):
        basis = LambdaBasis(lam, 256)
        for xi in (0.2 + 0j, 0.3 * cmath.exp(1j * math.pi / 4)):
            tag = f"lam={lam:g} xi={abs(xi):g}e^{{i{cmath.phase(xi):g}}}"
            st = states.lambda_squeezed(xi, basis)
            v = st.to_standard(st.truncation + 2)
            a, _, adl = operators.build_ladders(v.shape[0], lam)
            # residuals reach 4.3e-15 (lam 0.5, xi 0.2) at the 1e-14 tail cut
            out.append(Check(f"defining equation {tag}",
                             operators.eigen_residual(a - xi * adl, v, 0.0),
                             1e-11))
            c0_series = operators.squeezed_norm_constant(xi, basis)
            out.append(Check(f"norm constant routes {tag}",
                             abs(c0_series - st.norm_constant)
                             / abs(st.norm_constant), 1e-9))
            # the kernel's closed-form C_0 normalizes the exact state; the
            # Gram quadratic form reads the truncated series it stores
            out.append(Check(f"Gaussian kernel vs Gram route C_0 {tag}",
                             abs(st.expansion.norm() - 1.0), 1e-12))
            odd = float(np.max(np.abs(st.expansion.coeffs[1::2]), initial=0.0))
            out.append(Check(f"odd coefficients {tag}", odd, 0.0))
    basis = LambdaBasis(1.0, 256)
    xi = 0.3
    st = states.lambda_squeezed(xi, basis)
    series_vec = st.expansion.to_standard(200)
    op_vec = operators.squeezed_operator_form(xi, basis, 200)
    e0 = np.zeros(200, dtype=complex)
    e0[0] = 1.0
    _, _, adl = operators.build_ladders(200, basis.lam)
    direct = operators.expm_apply(0.5 * xi * (adl @ adl), e0)
    out.append(Check("three-route series vs printed operator",
                     _normalized_mismatch(series_vec, op_vec), 1e-8))
    # the operator form is parallel to the state up to a positive scalar
    out.append(Check("Gaussian kernel vs operator form", float(np.max(np.abs(
        st.to_standard(200) - op_vec / np.linalg.norm(op_vec)))), 1e-12))
    out.append(Check("three-route series vs deformed exponential",
                     _normalized_mismatch(series_vec, direct), 1e-8))
    # the scan reads the grid radius 0.9813 below R = 1; a scan that stopped
    # one 1.05 step earlier (0.9346) fails
    out.append(Check("radius at lam=0 near 1",
                     abs(states.radius_min(LambdaBasis(0.0, 8)) - 1.0), 0.02))
    return out


def _suite_stats() -> list[Check]:
    out = []
    basis_tiny = LambdaBasis(1e-8, 64)
    poisson_err = 0.0
    for alpha in (0.7, 2.0):
        mu = alpha * alpha
        for m in range(21):
            want = math.exp(-mu + m * math.log(mu) - math.lgamma(m + 1)) \
                if mu > 0 else float(m == 0)
            poisson_err = max(poisson_err,
                              abs(stats.p_lambda(m, alpha, basis_tiny) - want))
    # first order in lam: |dP/dlam| = 2 m P(m) / alpha, so the gap is about
    # 1e-8 max_m 2 m P(m) / alpha = 8.6e-9 (alpha 0.7)
    out.append(Check("Poisson limit", poisson_err, 2e-8))
    basis = LambdaBasis(1.0, 64)
    N = 48
    coh = np.exp(-0.5 + np.arange(N) * math.log(1.0)
                 - 0.5 * np.array([math.lgamma(k + 1) for k in range(N)]))
    dot_route = abs(float(np.dot(fock.lambda_ket(1, basis, N), coh))) ** 2
    out.append(Check("p_lambda vs projection route",
                     _scaled_err(stats.p_lambda(1, 1.0, basis), dot_route), 1e-9))
    for lam in (0.5, 2.0):
        for alpha in (1.0 + 0j, 1.0 + 1.0j):
            st = states.lambda_coherent(alpha, LambdaBasis(lam, 128))
            closed = stats.number_moments(st)
            frame = stats.number_moments(st.expansion)
            err = float(max(_scaled_err(getattr(closed, f), getattr(frame, f))
                            for f in ("prob_sum", "mean", "second_moment",
                                      "mandel_q")))
            out.append(Check(f"coherent moments, closed form vs |G c|^2 "
                             f"lam={lam:g} alpha={alpha:g}", err, 1e-10))
            q, g = stats.quadrature_variances(st), \
                operators._lambda_quadratures(st.expansion)
            out.append(Check(f"coherent quadratures, closed form vs Gram route "
                             f"lam={lam:g} alpha={alpha:g}",
                             max(abs(q.var_x - g.var_x), abs(q.var_p - g.var_p)), 1e-12))
    vac = np.zeros(8, dtype=complex)
    vac[0] = 1.0
    rep = stats.quadrature_variances(vac)
    out.append(Check("vacuum quadratures",
                     max(abs(rep.var_x - 0.5), abs(rep.var_p - 0.5)), 1e-10))
    cs = operators.displaced_form(1.0 + 0.5j, LambdaBasis(0.0, 8), 64)
    rep = stats.quadrature_variances(cs)
    out.append(Check("coherent quadratures",
                     max(abs(rep.var_x - 0.5), abs(rep.var_p - 0.5)), 1e-8))
    sv = states.squeezed_vacuum(0.4)
    rep = stats.quadrature_variances(sv)
    out.append(Check("squeezed vacuum product",
                     abs(rep.product - 0.25), 1e-8))
    st = states.lambda_squeezed(0.2, LambdaBasis(1.0, 256))
    lam_route = stats.quadrature_variances(st)
    dense_route = stats.quadrature_variances(st.to_standard())
    out.append(Check("quadrature route equivalence",
                     max(abs(lam_route.var_x - dense_route.var_x),
                         abs(lam_route.var_p - dense_route.var_p)), 1e-8))
    gram_route = operators._lambda_quadratures(st.expansion)
    out.append(Check("Gaussian kernel vs Gram route var_x/var_p",
                     max(abs(lam_route.var_x - gram_route.var_x),
                         abs(lam_route.var_p - gram_route.var_p)), 1e-12))
    kernel_q = stats.number_moments(st).mandel_q
    out.append(Check("Gaussian kernel vs Gram route frame Q",
                     _scaled_err(kernel_q,
                                 stats.number_moments(st.expansion).mandel_q),
                     1e-12))
    kernel_q = stats.squeezed_moments([st], "standard")[0].mandel_q
    out.append(Check("Gaussian kernel vs Gram route standard Q",
                     _scaled_err(kernel_q, stats.number_moments(
                         st.to_standard()).mandel_q), 1e-12))
    ccs = states.lambda_coherent(1.5, LambdaBasis(0.0, 128))
    rep = stats.number_moments(ccs.to_standard())
    out.append(Check("canonical CS Mandel Q", abs(rep.mandel_q), 1e-8))
    return out


def _suite_families() -> list[Check]:
    out = []
    fact = [math.factorial(k) for k in range(64)]
    for power, name in ((1, "canonical"), (2, "f2"), (3, "f1")):
        alpha = 1.2
        direct = families.nonlinear_cs(name, alpha)
        general = families.penson_solomon_cs(
            alpha, lambda k: float(fact[k]) ** power, direct.coeffs.shape[0])
        n = min(direct.coeffs.shape[0], general.coeffs.shape[0])
        out.append(Check(f"penson_solomon reduction {name}",
                         float(np.max(np.abs(direct.coeffs[:n]
                                             - general.coeffs[:n]))), 1e-12))
    N = 16
    num = operators.number_operator(N)
    h2 = (num + 0.5 * np.eye(N)) @ (num + 0.5 * np.eye(N))
    spec_err = max(abs(families.nonlinear_spectrum(n) - float(h2[n, n].real))
                   for n in range(N - 1))
    out.append(Check("quadratic spectrum vs oracle", spec_err, 1e-12))
    ratio_err = 0.0
    for lam in (0.5, 1.0, 2.0):
        basis = LambdaBasis(lam, 64)
        for m in range(1, 13):
            r = families.identify_bound_state_nonlinearity(m, basis)
            want = np.arange(m, 0, -1, dtype=float)
            ratio_err = max(ratio_err, float(np.max(np.abs(r - want))))
    out.append(Check("bound-state nonlinearity ratios", ratio_err, 1e-10))
    return out


SUITES = {
    "overlaps": _suite_overlaps,
    "ladders": _suite_ladders,
    "matel": _suite_matel,
    "coherent": _suite_coherent,
    "squeezed": _suite_squeezed,
    "stats": _suite_stats,
    "families": _suite_families,
}


def run_suite(name: str) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(sorted(SUITES))} or 'all'")
    return SuiteReport(name, SUITES[name]())


def run(name: str = "all") -> list[SuiteReport]:
    if name == "all":
        return [run_suite(k) for k in SUITES]
    return [run_suite(name)]
