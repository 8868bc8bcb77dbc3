"""Numerics for the deformed Fock basis |n>_lam and the states built on it.

The basis diagonalizes (a_dag + lam) a + 1/2; its vectors are normalized but
non-orthogonal finite superpositions of number states. The package provides
the basis itself (fock), dense oracle operators (operators), coherent and
squeezed states with convergence guards (states), photon statistics and
quadratures (stats), the appendix state families (families), figure sweeps
(sweeps), and a self-verification layer (verify) behind the `lfock` CLI.
"""

from .families import (NonlinearCS, classical_frequency,
                       identify_bound_state_nonlinearity, nonlinear_cs,
                       nonlinear_spectrum, penson_solomon_cs)
from .fock import (LambdaBasis, LambdaExpansion, apply_t_operator,
                   expansion_matrix, gram, gram_coefficient,
                   iterated_lowering_norm, ladder_down, ladder_up, lambda_ket,
                   lowering_scalar, matel_annihilation_power,
                   matel_creation_power, matel_normal_ordered,
                   overlap_analytic, raising_scalar, to_lambda)
from .operators import (TruncationError, build_ladders, eigen_residual,
                        expm_apply, number_operator, with_margin)
from .specfun import laguerre0_log, log_factorial
from .states import (DomainError, LambdaCoherent, LambdaSqueezed,
                     coherent_overlap, displaced_form, evolve, lambda_coherent,
                     lambda_squeezed, radius_estimate, radius_min,
                     squeezed_norm_constant, squeezed_operator_form,
                     squeezed_vacuum)
from .stats import (QuadratureReport, StatisticsReport, number_moments,
                    p_lambda, quadrature_variances, squeezed_moments)
from .sweeps import SweepResult, sweep_fig1, sweep_fig2, sweep_fig3

__version__ = "0.1.0"

__all__ = [
    "log_factorial", "laguerre0_log",
    "LambdaBasis", "LambdaExpansion", "lambda_ket", "apply_t_operator",
    "overlap_analytic", "ladder_down", "ladder_up", "iterated_lowering_norm",
    "lowering_scalar", "raising_scalar", "matel_creation_power",
    "matel_annihilation_power", "matel_normal_ordered", "expansion_matrix",
    "gram", "gram_coefficient", "to_lambda",
    "TruncationError", "build_ladders", "number_operator", "expm_apply",
    "eigen_residual", "with_margin",
    "DomainError", "LambdaCoherent", "LambdaSqueezed", "lambda_coherent",
    "coherent_overlap", "displaced_form", "evolve", "squeezed_vacuum",
    "lambda_squeezed", "squeezed_norm_constant", "squeezed_operator_form",
    "radius_estimate", "radius_min",
    "StatisticsReport", "QuadratureReport", "p_lambda", "number_moments",
    "quadrature_variances", "squeezed_moments",
    "NonlinearCS", "nonlinear_spectrum", "classical_frequency", "nonlinear_cs",
    "penson_solomon_cs", "identify_bound_state_nonlinearity",
    "SweepResult", "sweep_fig1", "sweep_fig2", "sweep_fig3",
    "__version__",
]
