"""The `state` command's payload: one state's columns in both bases plus the
metadata that lets the dump check itself (residual, norms).

An exact state's lambda column (lambda_cs, lambda_ss; squeezed_vacuum and
canonical without --truncation) is its own first N frame coefficients,
fock._frame_coeffs, N the standard column's length; the other kinds print
fock.to_lambda, the printed vector's finite expansion.

Only the `state` command loads this module. lambda_ket needs fock alone;
lambda_cs, lambda_ss and squeezed_vacuum also load states, and f1, f2 and
canonical load families, each inside its own branch.
"""

from __future__ import annotations

import math

import numpy as np

from . import fock
from .fock import LambdaBasis, LambdaExpansion, _cancels, _ladder, _warn


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _residual(w: np.ndarray, v: np.ndarray) -> float:
    return float(np.linalg.norm(w)) / float(np.linalg.norm(v))


def _norm_gram(form: tuple[float, float]) -> dict:
    """{"norm_gram": sqrt(c^H G c)} from form, that norm and its condition
    number, or {} with a warning where the form cancels past 1e-12; the
    standard column does not depend on it."""
    norm, kappa = form
    if _cancels(kappa):
        _warn(f"norm_gram omitted: the Gram form cancels over the "
              f"series (condition number {kappa:.3g})")
        return {}
    return {"norm_gram": norm}


def _state_payload(args) -> tuple[dict, np.ndarray, np.ndarray]:
    """Build the requested state; return (metadata, standard, lambda) columns."""
    kind = args.kind
    lam = float(args.lam)
    trunc = args.truncation
    meta: dict = {"command": "state", "kind": kind, "lambda": lam}

    if kind == "lambda_ket":
        n = args.index
        basis = LambdaBasis(lam, max(n + 1, 2))
        std = fock.lambda_ket(n, basis, max(n + 1, trunc or 0)).astype(complex)
        lamc = np.zeros(n + 1, dtype=complex)
        lamc[n] = 1.0
        meta.update(n=n, residual_kind="number_eigenvector",
                    residual=_residual(_ladder(_ladder(std), lam) - n * std, std),
                    **_norm_gram(LambdaExpansion(basis, lamc).norm_and_condition()))
    elif kind == "lambda_cs":
        from . import states
        alpha = complex(args.alpha)
        st = states.lambda_coherent(alpha, LambdaBasis(lam, states._HARD_CAP), trunc)
        std = st.to_standard()
        lamc = st.expansion.coeffs
        meta.update(alpha=_pair(alpha), residual_kind="annihilation_eigenvector",
                    residual=_residual(_ladder(std) - alpha * std, std),
                    **_norm_gram(st.expansion.norm_and_condition()))
    elif kind == "lambda_ss":
        from . import states
        xi = complex(args.xi)
        st = states.lambda_squeezed(xi, LambdaBasis(lam, states._SQUEEZED_MAX_N),
                                    trunc)
        std = st.to_standard()
        lamc = st.expansion.coeffs
        v = np.append(std, [0j, 0j])
        meta.update(xi=_pair(xi), residual_kind="squeezing_kernel",
                    residual=_residual(_ladder(v) - xi * _ladder(v, lam), v),
                    norm_constant=st.norm_constant,
                    **_norm_gram(st.norm_and_condition()))
    elif kind == "squeezed_vacuum":
        from . import states
        xi = complex(args.xi)
        std = states.squeezed_vacuum(xi, trunc)
        basis = LambdaBasis(lam, max(std.shape[0], 2))
        # the exact state (1-|xi|^2)^(1/4) g(xi, 0)
        lamc = fock.to_lambda(std, basis) if trunc else fock._frame_coeffs(
            xi, 0j, 0.25 * math.log1p(-abs(xi) ** 2), basis, std.shape[0])
        v = np.append(std, [0j, 0j])
        meta.update(xi=_pair(xi), residual_kind="squeezing_kernel",
                    residual=_residual(_ladder(v) - xi * _ladder(v, 0.0), v))
    else:  # appendix families: f1, f2, canonical
        from . import families
        alpha = complex(args.alpha)
        fam = families.nonlinear_cs(kind, alpha, trunc)
        std = np.asarray(fam.coeffs, dtype=complex)
        basis = LambdaBasis(lam, max(std.shape[0], 2))
        # the exact canonical state e^{-|alpha|^2/2} g(0, alpha); f1 and f2
        # have no closed form
        lamc = fock.to_lambda(std, basis) if trunc or kind != "canonical" \
            else fock._frame_coeffs(0j, alpha, -abs(alpha) ** 2 / 2.0, basis,
                                    std.shape[0])
        g = {"f1": lambda n: n ** 1.5, "f2": lambda n: float(n),
             "canonical": math.sqrt}[kind]
        resid = max((abs(std[n] - std[n - 1] * alpha / g(n))
                     for n in range(1, std.shape[0])), default=0.0)
        meta.update(alpha=_pair(alpha), coeff_rule=fam.coeff_rule,
                    residual_kind="coefficient_recurrence", residual=float(resid),
                    norm_constant=fam.norm_constant)
    meta["norm_euclidean"] = float(np.linalg.norm(std))
    return meta, std, lamc
