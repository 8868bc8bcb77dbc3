"""Release gates, one test per numbered criterion.

Run `pytest tests/test_acceptance.py -v` for a one-line pass/fail report per
criterion. Criterion 9 is split: 9a carries the attainable quadrature checks,
9b is the crossover-ordering claim kept as a deliberate failure (see its
docstring for the blocking analysis).
"""

import cmath
import json
import math

import numpy as np
import pytest
from scipy.linalg import cholesky
from scipy.stats import poisson

from lfock import cli, sweeps
from lfock.fock import (LambdaBasis, gram, ladder_down, ladder_up, lambda_ket,
                        lowering_scalar, matel_normal_ordered,
                        overlap_analytic)
from lfock.families import (identify_bound_state_nonlinearity, nonlinear_cs,
                            nonlinear_spectrum, penson_solomon_cs)
from lfock.operators import (apply_t_operator, build_ladders, coherent_overlap,
                             displaced_form, eigen_residual, expansion_matrix,
                             expm_apply, number_operator,
                             squeezed_norm_constant, squeezed_operator_form)
from lfock.specfun import log_factorial_table
from lfock.states import (DomainError, evolve, lambda_coherent,
                          lambda_squeezed, radius_min, squeezed_vacuum)
from lfock.stats import number_moments, p_lambda, quadrature_variances


def _overlap_modulus(u, v):
    return abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))


def test_criterion_01_basis_correctness():
    # n <= 40, lam in {0.1, 0.5, 1, 2, 3}: unit norms to 1e-12, the two
    # construction routes agree to 1e-12, analytic overlaps match coefficient
    # dot products to 1e-10, and the Gram matrix is symmetric positive definite
    for lam in (0.1, 0.5, 1.0, 2.0, 3.0):
        basis = LambdaBasis(lam, 48)
        E = expansion_matrix(basis, 41)
        for n in range(41):
            v = lambda_ket(n, basis, 48)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12, (lam, n)
            assert np.max(np.abs(v - apply_t_operator(n, basis, 48))) <= 1e-12
        # every m <= n <= 40 in one array call: E is lower triangular, so
        # (E E^T)[m, n] is the coefficient dot product E[m, :m+1] . E[n, :m+1]
        m, n = np.triu_indices(41)
        got = overlap_analytic(m, n, basis)
        assert np.max(np.abs(got - (E @ E.T)[m, n])) <= 1e-10
        assert overlap_analytic(7, 12, basis) == got[(m == 7) & (n == 12)][0]
        G = gram(basis, 41)
        assert np.array_equal(G, G.T)
        # positive definiteness: G factors as E E^T with an invertible
        # triangular E (diagonal strictly positive), so G is SPD exactly;
        # numeric Cholesky is additionally run where conditioning permits
        assert np.allclose(G, E @ E.T, atol=1e-10)
        assert np.all(np.diag(E) > 0.0)
        if lam <= 1.0:
            cholesky(G)
        else:
            assert np.linalg.eigvalsh(G).min() > -1e-10 * np.linalg.norm(G)


def test_criterion_02_ladder_and_number_structure():
    # closed ladder coefficients reproduce the dense matrix action to 1e-10
    # for n <= 30; the number-like operator has eigenvalue n; the iterated
    # lowering scalar sqrt(n!/L_n) equals the coefficient product to 1e-10
    N = 36
    for lam in (0.5, 1.0, 2.0):
        basis = LambdaBasis(lam, N)
        a, _, adl = build_ladders(N, lam)
        lf = log_factorial_table(31)
        for n in range(31):
            v = lambda_ket(n, basis, N).astype(complex)
            c_dn, idx = ladder_down(n, basis)
            want = (c_dn * lambda_ket(idx, basis, N) if n else np.zeros(N))
            assert np.max(np.abs(a @ v - want)) <= 1e-10, (lam, n, "down")
            if n < 30:
                c_up, up = ladder_up(n, basis)
                want_up = c_up * lambda_ket(up, basis, N)
                assert np.max(np.abs(adl @ v - want_up)) <= 1e-10, (lam, n)
            assert np.max(np.abs((adl @ (a @ v)) - n * v)) <= 1e-10, (lam, n)
            full = lowering_scalar(n, n, basis)
            closed = math.exp(0.5 * (lf[n] - basis.log_laguerre[n]))
            prod, m = 1.0, n
            for _ in range(n):
                c, m = ladder_down(m, basis)
                prod *= c
            scale = max(1.0, abs(closed))
            assert abs(full - closed) / scale <= 1e-10, (lam, n)
            assert abs(prod - closed) / scale <= 1e-10, (lam, n)


def test_criterion_03_matrix_element_formulas():
    # all three closed forms vs the dense oracle: (m, n) <= 12, (r, k) <= 3,
    # lam in {0.3, 1, 2}, relative 1e-9
    # the kets are standard-basis vectors, so the ambient inner product is a
    # plain dot product
    N = 26
    hi = 13
    for lam in (0.3, 1.0, 2.0):
        basis = LambdaBasis(lam, N)
        a, _, adl = build_ladders(N, lam)
        K = np.array([lambda_ket(n, basis, N) for n in range(hi)],
                     dtype=complex)
        apow = [np.linalg.matrix_power(a, k) for k in range(4)]
        upow = [np.linalg.matrix_power(adl, r) for r in range(4)]
        # one array call per matrix, every (m, n) <= 12: creation (k = 0),
        # annihilation (r = 0) and the normal-ordered products
        m, n = np.indices((hi, hi))
        for r in range(4):
            for k in range(4):
                dense = (K @ (upow[r] @ apow[k] @ K.T)).real
                got = matel_normal_ordered(m, n, r, k, basis)
                err = np.abs(got - dense) / np.maximum(1.0, np.abs(dense))
                assert np.max(err) <= 1e-9, (lam, r, k)
        assert matel_normal_ordered(7, 12, 3, 3, basis) == got[7, 12]


def test_criterion_04_coherent_identity():
    # |alpha, lam> in the standard basis equals e^{i lam Im alpha} D(alpha)|0>
    # with overlap modulus >= 1 - 1e-10; annihilation residual <= 1e-9; the
    # overlap kernel matches the canonical coherent overlap to 1e-9
    alphas = (1.0 + 0.0j, 2.0j, 1.0 + 1.0j)
    for lam in (0.5, 2.0):
        basis = LambdaBasis(lam, 256)
        for alpha in alphas:
            state = lambda_coherent(alpha, basis)
            N = state.truncation
            got = state.to_standard(N)
            want = displaced_form(alpha, basis, max(N, 64))[:N]
            assert _overlap_modulus(got, want) >= 1.0 - 1e-10, (lam, alpha)
            M = N + 10
            aa, _, _ = build_ladders(M)
            assert eigen_residual(aa, state.to_standard(M), alpha) <= 1e-9
        for alpha in alphas:
            for beta in alphas:
                got = coherent_overlap(alpha, beta, basis)
                canonical = cmath.exp(np.conj(alpha) * beta
                                      - abs(alpha) ** 2 / 2
                                      - abs(beta) ** 2 / 2)
                want = cmath.exp(1j * lam * (beta.imag - alpha.imag)) * canonical
                assert abs(got - want) <= 1e-9, (lam, alpha, beta)


def test_criterion_05_temporal_stability():
    # evolved states stay annihilation eigenvectors with eigenvalue
    # alpha e^{-it}, residual <= 1e-9, for t in {0.1, pi, 10}
    for lam in (0.5, 2.0):
        basis = LambdaBasis(lam, 256)
        for alpha in (1.0 + 0.0j, 2.0j, 1.0 + 1.0j):
            state = lambda_coherent(alpha, basis)
            for t in (0.1, math.pi, 10.0):
                moved = evolve(state, t)
                target = alpha * cmath.exp(-1j * t)
                assert abs(moved.alpha - target) <= 1e-12
                M = moved.truncation + 10
                aa, _, _ = build_ladders(M)
                resid = eigen_residual(aa, moved.to_standard(M), target)
                assert resid <= 1e-9, (lam, alpha, t)


def test_criterion_06_poisson_limit():
    # p_lambda at lam = 1e-8 within 1e-6 of Poisson(m; |alpha|^2) for m <= 20;
    # Mandel Q of the flat-limit coherent state is 0 +- 1e-8
    basis = LambdaBasis(1e-8, 24)
    for alpha in (0.7, 1.5, 2.0):
        for m in range(21):
            want = poisson.pmf(m, alpha ** 2)
            assert abs(p_lambda(m, alpha, basis) - want) <= 1e-6, (alpha, m)
    flat = LambdaBasis(0.0, 256)
    for alpha in (0.5, 1.0, 2.0):
        report = number_moments(lambda_coherent(alpha, flat))
        assert abs(report.mandel_q) <= 1e-8, alpha


def test_criterion_07_fig1_qualitative():
    # over lam in (0, 5]: Q goes negative for alpha = 1, 2 and positive for
    # alpha = -1, -2; for alpha = -2 the endpoint |Q(5)| sits below the
    # grid maximum of |Q| (approach toward Poissonian on the scanned grid)
    res = sweeps.sweep_fig1(None, (0.0, 5.0, 200))
    assert res.axis_values[0] == 0.0 and res.axis_values[-1] == 5.0
    cols = {name: np.array([v for v in series[1:]], dtype=float)
            for name, series in res.series.items()}
    for name, col in cols.items():
        assert not np.any(np.isnan(col)), name
    assert cols["Q[alpha=1]"].min() < 0.0
    assert cols["Q[alpha=2]"].min() < 0.0
    assert cols["Q[alpha=-1]"].max() > 0.0
    assert cols["Q[alpha=-2]"].max() > 0.0
    q_m2 = np.abs(cols["Q[alpha=-2]"])
    assert q_m2[-1] < q_m2.max()


def test_criterion_08_squeezed_defining_equation():
    # residual ||(a - xi a_dag_lam)|xi, lam>|| <= 1e-8 for xi in
    # {0.2, 0.3 e^{i pi/4}}, lam in {0, 0.5, 1}; series norm constant equals
    # the Gram-norm route to relative 1e-9; three operator routes agree to
    # overlap modulus >= 1 - 1e-8 at N = 200
    xis = (0.2 + 0.0j, 0.3 * cmath.exp(0.25j * math.pi))
    for lam in (0.0, 0.5, 1.0):
        basis = LambdaBasis(lam, 512)
        for xi in xis:
            state = lambda_squeezed(xi, basis)
            N = state.truncation + 20
            vec = state.to_standard(N)
            a, _, adl = build_ladders(N, lam)
            resid = np.linalg.norm(a @ vec - xi * (adl @ vec))
            assert resid <= 1e-8, (lam, xi)
            independent = squeezed_norm_constant(xi, basis)
            rel = abs(state.norm_constant - independent) / independent
            assert rel <= 1e-9, (lam, xi)
    N = 200
    e0 = np.zeros(N, dtype=complex)
    e0[0] = 1.0
    for lam, xi in ((0.5, 0.2 + 0.0j), (1.0, 0.3 * cmath.exp(0.25j * math.pi))):
        basis = LambdaBasis(lam, 512)
        series = lambda_squeezed(xi, basis).to_standard(N)
        operator = squeezed_operator_form(xi, basis, N)[:N]
        _, _, adl = build_ladders(N, lam)
        direct = expm_apply(0.5 * xi * (adl @ adl), e0)
        assert _overlap_modulus(series, operator) >= 1.0 - 1e-8, (lam, xi)
        assert _overlap_modulus(series, direct) >= 1.0 - 1e-8, (lam, xi)


def test_criterion_09a_quadrature_baselines_and_momentum_squeezing():
    # vacuum and canonical coherent states give 1/2 +- 1e-10 in both
    # quadratures; squeezed-vacuum uncertainty product is 1/4 +- 1e-8; for
    # lam <= 1 every evaluated grid point has var_p < 1/2 (the guarded
    # neighborhood of the series radius is the excluded xi -> 1 region)
    vac = np.zeros(8, dtype=complex)
    vac[0] = 1.0
    q = quadrature_variances(vac)
    assert abs(q.var_x - 0.5) <= 1e-10 and abs(q.var_p - 0.5) <= 1e-10
    flat = LambdaBasis(0.0, 256)
    for alpha in (1.0, 0.8 + 0.6j, 2.0j):
        q = quadrature_variances(lambda_coherent(alpha, flat))
        assert abs(q.var_x - 0.5) <= 1e-10, alpha
        assert abs(q.var_p - 0.5) <= 1e-10, alpha
    for xi in (0.2, 0.45, -0.3):
        q = quadrature_variances(squeezed_vacuum(xi))
        assert abs(q.product - 0.25) <= 1e-8, xi
    for lam in (0.0, 0.5, 1.0):
        evaluated = 0
        for xi in np.linspace(0.05, 0.9, 18):
            if lam == 0.0:
                if xi >= 1.0:
                    continue
                q = quadrature_variances(squeezed_vacuum(float(xi)))
            else:
                basis = LambdaBasis(lam, 1604)
                try:
                    q = quadrature_variances(
                        lambda_squeezed(float(xi), basis))
                except DomainError:
                    continue
            evaluated += 1
            assert q.var_p < 0.5, (lam, xi)
        assert evaluated >= 12, lam


def test_criterion_09b_squeezing_crossover_ordering():
    """The p->x transfer point (first grid xi with var_x < 1/2) should move
    to smaller xi as lam increases through {1.5, 2, 3}.

    Kept failing on purpose rather than weakened: in this construction the
    quadrature fluctuations of the squeezed family do not depend on lam at
    all. Writing a_dag as (a_dag + lam) - lam shifts every expectation so the
    lam contributions cancel identically in the variances, leaving
    var_x = |1 + xi|^2 / (2 (1 - |xi|^2)), which exceeds 1/2 for every real
    xi in (0, 1). No grid point with var_x < 1/2 exists at any lam, so no
    crossover can be located, let alone ordered.
    """
    crossovers = {}
    for lam in (1.5, 2.0, 3.0):
        basis = LambdaBasis(lam, 1604)
        found = None
        for xi in np.linspace(0.05, 0.9, 18):
            try:
                q = quadrature_variances(lambda_squeezed(float(xi), basis))
            except DomainError:
                continue
            if q.var_x < 0.5:
                found = float(xi)
                break
        assert found is not None, \
            f"no var_x < 1/2 crossover on the xi grid at lam={lam}"
        crossovers[lam] = found
    assert crossovers[3.0] < crossovers[2.0] < crossovers[1.5]


def test_criterion_10_fig3_qualitative():
    # lam = 1, |xi| in [0.05, 0.6]: Q < 0 somewhere in the deformed frame
    # and Q > 0 somewhere in the standard basis
    basis = LambdaBasis(1.0, 1604)
    q_frame, q_std = [], []
    for xi in np.linspace(0.05, 0.6, 12):
        state = lambda_squeezed(float(xi), basis)
        q_frame.append(number_moments(state).mandel_q)
        q_std.append(number_moments(
            state.to_standard(state.truncation + 40)).mandel_q)
    assert min(q_frame) < 0.0
    assert max(q_std) > 0.0


def test_criterion_11_convergence_radius():
    # scanned R(0) = 1 +- 0.05; R nonincreasing across lam in {0.5, 1, 2, 3}
    r0 = radius_min(LambdaBasis(0.0, 1600))
    assert abs(r0 - 1.0) <= 0.05
    rs = [radius_min(LambdaBasis(lam, 1600))
          for lam in (0.5, 1.0, 2.0, 3.0)]
    assert all(b <= a + 1e-15 for a, b in zip(rs, rs[1:])), rs
    assert rs[0] <= r0 + 1e-15


def test_criterion_12_quadratic_spectrum_families():
    # generalized-series reductions exact to 1e-12; spectrum (n + 1/2)^2
    # matches the dense oracle; bound-state ratios r_n = m - n + 1 to 1e-10
    alpha = 1.3
    for family, power in (("canonical", 1), ("f2", 2), ("f1", 3)):
        direct = nonlinear_cs(family, alpha)
        T = direct.coeffs.shape[0]
        fact = [math.factorial(k) for k in range(T)]
        via = penson_solomon_cs(alpha, lambda n: float(fact[n]) ** power, N=T)
        assert np.max(np.abs(direct.coeffs - via.coeffs)) <= 1e-12, family
    N = 64
    num = number_operator(N)
    H2 = (num + 0.5 * np.eye(N)) @ (num + 0.5 * np.eye(N))
    for n in range(N):
        assert nonlinear_spectrum(n) == pytest.approx(H2[n, n].real,
                                                      rel=1e-12)
    for lam in (0.5, 1.0, 2.0):
        basis = LambdaBasis(lam, 24)
        for m in range(1, 21):
            got = identify_bound_state_nonlinearity(m, basis)
            want = np.arange(m, 0, -1, dtype=float)
            assert np.max(np.abs(got - want)) <= 1e-10, (lam, m)


def test_criterion_13_determinism(tmp_path, capsys):
    # `lfock verify all` exits 0; repeated figure invocations produce
    # byte-identical files
    assert cli.main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7 and "FAIL" not in out
    runs = {
        "fig1": ["fig1", "--alpha", "1", "--alpha", "-2", "--grid", "0:5:7"],
        "fig2": ["fig2", "--lambda", "1", "--grid", "0.1:0.5:5"],
        "fig3a": ["fig3a", "--lambda", "1", "--grid", "0.05:0.5:5"],
        "fig3b": ["fig3b", "--lambda", "1", "--grid", "0.05:0.5:5"],
    }
    for tag, argv in runs.items():
        first = tmp_path / f"{tag}_first.csv"
        second = tmp_path / f"{tag}_second.csv"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), tag
        header = first.read_text().splitlines()[0]
        json.loads(header[2:])  # metadata line is valid JSON
