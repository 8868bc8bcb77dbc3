"""Coherent families of the quadratic-spectrum oscillator."""

import math

import numpy as np
import pytest
from scipy.special import iv

from lfock.families import (NonlinearCS, classical_frequency,
                            identify_bound_state_nonlinearity, nonlinear_cs,
                            nonlinear_spectrum, penson_solomon_cs)
from lfock.fock import LambdaBasis, TruncationError


def test_spectrum_values():
    assert nonlinear_spectrum(0) == 0.25
    assert nonlinear_spectrum(1) == 2.25
    assert nonlinear_spectrum(3) == 12.25
    with pytest.raises(ValueError):
        nonlinear_spectrum(-1)


def test_classical_frequency_is_amplitude_dependent():
    assert classical_frequency(0.0) == 2.0
    assert classical_frequency(1.0) == 6.0
    assert classical_frequency(1.0j) == 6.0
    assert classical_frequency(math.sqrt(0.5)) == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("family,power", [("canonical", 1), ("f2", 2),
                                          ("f1", 3)])
def test_generalized_series_reduces_to_named_families(family, power):
    # C(n) = (n!)^power reproduces the named-family coefficients exactly
    alpha = 1.3
    direct = nonlinear_cs(family, alpha)
    T = direct.coeffs.shape[0]
    fact = [math.factorial(k) for k in range(T)]
    via_c = penson_solomon_cs(alpha, lambda n: float(fact[n]) ** power, N=T)
    assert np.max(np.abs(direct.coeffs - via_c.coeffs)) < 1e-12


@pytest.mark.parametrize("family", ["f1", "f2", "canonical"])
def test_families_are_normalized(family):
    state = nonlinear_cs(family, 0.9 + 0.4j)
    assert isinstance(state, NonlinearCS)
    assert np.linalg.norm(state.coeffs) == pytest.approx(1.0, abs=1e-10)
    assert state.family == family
    assert "alpha" in state.coeff_rule


def test_f2_norm_constant_is_bessel():
    # sum 1/(n!)^2 = I_0(2), so the norm constant at alpha = 1 is I_0(2)^-1/2
    state = nonlinear_cs("f2", 1.0)
    assert state.norm_constant == pytest.approx(1.0 / math.sqrt(iv(0, 2.0)),
                                                rel=1e-12)
    assert state.norm_constant == pytest.approx(0.6623264148718883, rel=1e-12)


def test_canonical_family_is_poisson_weighted():
    alpha = 0.8
    state = nonlinear_cs("canonical", alpha, N=24)
    n = np.arange(24)
    fact = np.array([math.factorial(k) for k in n], dtype=float)
    want = alpha ** n / np.sqrt(fact)
    want /= np.linalg.norm(want)
    assert np.max(np.abs(state.coeffs - want)) < 1e-12


def test_zero_amplitude_is_vacuum():
    for family in ("f1", "f2", "canonical"):
        state = nonlinear_cs(family, 0.0)
        assert state.coeffs.shape == (1,)
        assert state.coeffs[0] == 1.0
    assert penson_solomon_cs(0.0, math.factorial).coeffs.shape == (1,)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        nonlinear_cs("f3", 1.0)


def test_divergent_window_rejected():
    # constant C gives a plain geometric series; at |Z| >= 1 there is no tail
    # within the 600-term horizon, or in the window N
    with pytest.raises(TruncationError):
        penson_solomon_cs(1.5, lambda n: 1.0)
    with pytest.raises(ValueError):
        penson_solomon_cs(0.9, lambda n: 1.0, N=12)


def test_nonpositive_c_rejected():
    with pytest.raises(ValueError):
        penson_solomon_cs(0.5, lambda n: float(n))  # C(0) = 0


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_bound_state_ratios(lam):
    # expansion coefficients of |m>_lam obey lam sqrt(n) c_n/c_{n-1} = m-n+1
    basis = LambdaBasis(lam, 32)
    for m in (1, 5, 12, 20):
        got = identify_bound_state_nonlinearity(m, basis)
        want = np.arange(m, 0, -1, dtype=float)
        assert np.max(np.abs(got - want)) < 1e-10, f"m={m}"


def test_bound_state_ratio_edge_cases():
    basis = LambdaBasis(1.0, 8)
    assert identify_bound_state_nonlinearity(0, basis).shape == (0,)
    flat = LambdaBasis(0.0, 8)
    with pytest.raises(ValueError):
        identify_bound_state_nonlinearity(3, flat)
