"""Numerics for the deformed Fock basis |n>_lam and the states built on it.

The basis diagonalizes (a_dag + lam) a + 1/2; its vectors are normalized but
non-orthogonal finite superpositions of number states. The package provides
the basis itself (fock), coherent and squeezed states with convergence guards
(states), photon statistics and quadratures (stats), the appendix state
families (families), figure sweeps (sweeps), and a self-verification layer
(verify) behind the `lfock` CLI. The oracles it checks against live in
lfock.operators, which `import lfock` does not load; import it by name.
"""

from .families import (NonlinearCS, classical_frequency,
                       identify_bound_state_nonlinearity, nonlinear_cs,
                       nonlinear_spectrum, penson_solomon_cs)
from .fock import (DomainError, LambdaBasis, LambdaExpansion, TruncationError,
                   gram, ladder_down, ladder_up, lambda_ket, lowering_scalar,
                   matel_normal_ordered, overlap_analytic, raising_scalar,
                   to_lambda)
from .specfun import laguerre0_log, log_factorial
from .states import (LambdaCoherent, LambdaSqueezed, evolve, lambda_coherent,
                     lambda_squeezed, radius_estimate, radius_min,
                     squeezed_vacuum)
from .stats import (QuadratureReport, StatisticsReport, number_moments,
                    p_lambda, quadrature_variances, squeezed_moments)
from .sweeps import SweepResult, sweep_fig1, sweep_fig2, sweep_fig3

__version__ = "0.1.0"

__all__ = [
    "log_factorial", "laguerre0_log",
    "LambdaBasis", "LambdaExpansion", "lambda_ket", "overlap_analytic",
    "ladder_down", "ladder_up", "lowering_scalar", "raising_scalar",
    "matel_normal_ordered", "gram", "to_lambda",
    "DomainError", "TruncationError",
    "LambdaCoherent", "LambdaSqueezed", "lambda_coherent", "evolve",
    "squeezed_vacuum", "lambda_squeezed", "radius_estimate", "radius_min",
    "StatisticsReport", "QuadratureReport", "p_lambda", "number_moments",
    "quadrature_variances", "squeezed_moments",
    "NonlinearCS", "nonlinear_spectrum", "classical_frequency", "nonlinear_cs",
    "penson_solomon_cs", "identify_bound_state_nonlinearity",
    "SweepResult", "sweep_fig1", "sweep_fig2", "sweep_fig3",
    "__version__",
]
