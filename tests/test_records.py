"""The value records: immutable, with reprs that print no coefficient array."""

import cmath

import numpy as np
import pytest

from lfock import states, stats, verify
from lfock.families import nonlinear_cs
from lfock.fock import LambdaBasis, LambdaExpansion
from lfock.states import evolve, lambda_coherent, lambda_squeezed

_BASIS = LambdaBasis(1.0, 128)


def _records():
    """Each frozen record, one instance, with the fields it must keep."""
    coherent = lambda_coherent(0.6 - 0.2j, _BASIS)
    squeezed = lambda_squeezed(0.3, _BASIS)
    return {
        "LambdaExpansion": (coherent.expansion, ("basis", "coeffs")),
        "StatisticsReport": (stats.number_moments(coherent),
                             ("mean", "second_moment", "mandel_q", "prob_sum",
                              "basis_tag", "q_defined")),
        "QuadratureReport": (stats.quadrature_variances(squeezed),
                             ("var_x", "var_p", "product")),
        "LambdaCoherent": (coherent, ("alpha", "basis", "expansion", "phase")),
        "LambdaSqueezed": (squeezed, ("xi", "basis", "norm_constant", "n_terms",
                                      "expansion")),
        "Check": (verify.Check("c", 0.0, 1.0), ("name", "err", "tol")),
        "SuiteReport": (verify.SuiteReport("s", []), ("name", "checks")),
        "NonlinearCS": (nonlinear_cs("f1", 0.5),
                        ("alpha_or_z", "family", "coeff_rule", "coeffs",
                         "norm_constant")),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_frozen_records_refuse_assignment(name):
    record, fields = _records()[name]
    assert type(record).__name__ == name
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before


@pytest.mark.parametrize("record", [
    LambdaExpansion(_BASIS, np.arange(3, dtype=complex)),
    lambda_coherent(0.5, _BASIS),
    lambda_coherent(0.5, _BASIS, 8),
    lambda_squeezed(0.3, _BASIS),
    lambda_squeezed(0.3, _BASIS, 12),
    nonlinear_cs("canonical", 0.5),
], ids=["expansion", "coherent", "coherent-N", "squeezed", "squeezed-N",
        "nonlinear"])
def test_reprs_print_no_coefficient_array(record):
    text = repr(record)
    assert text.startswith(type(record).__name__ + "(")
    for hidden in ("array", "coeffs", "expansion", "_series", "_truncated"):
        assert hidden not in text
    if hasattr(record, "basis"):
        assert f"basis={_BASIS!r}" in text


def test_squeezed_expansion_is_built_once(monkeypatch):
    calls = []
    series = states._frame_coeffs

    def counted(*args):
        calls.append(args)
        return series(*args)

    monkeypatch.setattr(states, "_frame_coeffs", counted)
    state = lambda_squeezed(0.4, _BASIS)
    first = state.expansion
    assert state.expansion is first
    assert len(calls) == 1


@pytest.mark.parametrize("N", [None, 7])
def test_evolve_keeps_rotated_alpha_phase_product_and_truncation(N):
    start = evolve(lambda_coherent(0.8 + 0.3j, _BASIS, N), 0.9)  # phase != 1
    t = 0.35
    moved = evolve(start, t)
    rotated = start.alpha * cmath.exp(-1j * t)
    assert type(moved) is states.LambdaCoherent
    assert moved.alpha == rotated
    assert moved.phase == start.phase * cmath.exp(-0.5j * t)
    assert moved.basis is _BASIS
    assert moved._truncated is (N is not None)
    fresh = lambda_coherent(rotated, _BASIS, N)
    assert np.array_equal(moved.expansion.coeffs, fresh.expansion.coeffs)
    if N is not None:
        assert moved.truncation == start.truncation == N
