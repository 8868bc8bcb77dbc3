"""Numerics for the deformed Fock basis |n>_lam and the states built on it.

The basis diagonalizes (a_dag + lam) a + 1/2; its vectors are normalized but
non-orthogonal finite superpositions of number states. The package provides
the basis itself (fock), coherent and squeezed states with convergence guards
(states), photon statistics and quadratures (stats), the appendix state
families (families), figure sweeps (sweeps), and a self-verification layer
(verify) behind the `lfock` CLI. The oracles it checks against live in
lfock.operators, which no public name reaches; import it by name.

`import lfock` loads no submodule and no numpy: each public name imports
its submodule the first time it is looked up (PEP 562), so a command loads
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; __all__ is built from it
_SOURCES = {name: module for module, names in (
    ("specfun", ("log_factorial", "laguerre0_log")),
    ("fock", ("LambdaBasis", "LambdaExpansion", "lambda_ket", "overlap_analytic",
              "ladder_down", "ladder_up", "lowering_scalar", "raising_scalar",
              "matel_normal_ordered", "gram", "to_lambda",
              "DomainError", "TruncationError")),
    ("states", ("LambdaCoherent", "LambdaSqueezed", "lambda_coherent", "evolve",
                "squeezed_vacuum", "lambda_squeezed", "radius_min")),
    ("stats", ("StatisticsReport", "QuadratureReport", "p_lambda",
               "number_moments", "quadrature_variances", "squeezed_moments")),
    ("families", ("NonlinearCS", "nonlinear_spectrum", "classical_frequency",
                  "nonlinear_cs", "penson_solomon_cs",
                  "identify_bound_state_nonlinearity")),
    ("sweeps", ("SweepResult", "sweep_fig1", "sweep_fig2", "sweep_fig3")),
) for name in names}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
