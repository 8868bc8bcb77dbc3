"""Deformed coherent families of the quadratic-spectrum oscillator.

Squaring the oscillator Hamiltonian gives the spectrum (n + 1/2)^2 and, at
the classical level, an amplitude-dependent frequency 2(1 + 2|alpha|^2).
Three coherent families attach to it, distinguished by how fast their
coefficients fall: alpha^n/(n!)^{3/2} (f1), alpha^n/n! (f2), and the
canonical alpha^n/sqrt(n!). All are instances of the generalized form
Z^n/sqrt(C(n)), and the deformed bound states |m>_lam fit the same mold with
nonlinearity factor m - n + 1 at step n.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fock import LambdaBasis, TruncationError

_FAMILY_RULES = {
    "f1": "alpha^n / (n!)^{3/2}",
    "f2": "alpha^n / n!",
    "canonical": "alpha^n / sqrt(n!)",
    "penson_solomon": "Z^n / sqrt(C(n))",
}
_TAIL = 1e-18
_CAP = 600


class NonlinearCS(NamedTuple):
    """A normalized deformed coherent vector in the standard basis."""

    alpha_or_z: complex
    family: str
    coeff_rule: str
    coeffs: np.ndarray
    norm_constant: float = 1.0

    def __repr__(self) -> str:
        return (f"NonlinearCS(alpha_or_z={self.alpha_or_z!r}, family={self.family!r}, "
                f"coeff_rule={self.coeff_rule!r}, norm_constant={self.norm_constant!r})")


def nonlinear_spectrum(n: int) -> float:
    """Eigenvalue (n + 1/2)^2 of the squared oscillator Hamiltonian."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (n + 0.5) ** 2


def classical_frequency(alpha: complex) -> float:
    """Classical oscillation frequency 2(1 + 2|alpha|^2).

    |alpha|^2 is a constant of the motion, so the frequency is conserved
    along each trajectory.
    """
    return 2.0 * (1.0 + 2.0 * abs(complex(alpha)) ** 2)


def _series_from_ratio(alpha: complex, step, N: int | None) -> np.ndarray:
    """Unnormalized coefficients c_0 = 1, c_n = c_{n-1} * step(n), to N terms
    or (N None) to a 1e-18 tail, raising TruncationError past 600 terms."""
    if N is not None:
        c = np.zeros(N, dtype=complex)
        c[0] = 1.0
        for n in range(1, N):
            c[n] = c[n - 1] * step(n)
        return c
    c = [1.0 + 0.0j]
    peak = 1.0
    while len(c) < _CAP:
        n = len(c)
        c.append(c[-1] * step(n))
        a = abs(c[-1])
        peak = max(peak, a)
        if a < _TAIL * peak and abs(c[-2]) < _TAIL * peak:
            return np.array(c)
    raise TruncationError("series tail not below 1e-18 within 600 terms; "
                          "|alpha| too large or C(n) grows too slowly")


def _normalized(alpha, family: str, c: np.ndarray) -> NonlinearCS:
    nrm = float(np.linalg.norm(c))
    if not (nrm > 0 and math.isfinite(nrm)):
        raise ValueError("series norm not finite")
    return NonlinearCS(complex(alpha), family, _FAMILY_RULES[family],
                       c / nrm, norm_constant=1.0 / nrm)


def nonlinear_cs(family: str, alpha: complex, N: int | None = None) -> NonlinearCS:
    """Build the f1, f2, or canonical family member at amplitude alpha.

    The coefficient recurrences are c_n = c_{n-1} alpha / n^{3/2} (f1),
    alpha / n (f2), alpha / sqrt(n) (canonical); normalization makes the
    Euclidean norm exactly 1.
    """
    alpha = complex(alpha)
    if family == "f1":
        step = lambda n: alpha / (n * math.sqrt(n))
    elif family == "f2":
        step = lambda n: alpha / n
    elif family == "canonical":
        step = lambda n: alpha / math.sqrt(n)
    else:
        raise ValueError(f"unknown family {family!r}; expected f1, f2, or "
                         "canonical (penson_solomon has its own constructor)")
    if alpha == 0:
        return _normalized(alpha, family, np.ones(1, dtype=complex))
    return _normalized(alpha, family, _series_from_ratio(alpha, step, N))


def penson_solomon_cs(Z: complex, C, N: int | None = None) -> NonlinearCS:
    """Generalized series Z^n/sqrt(C(n)), C a callable positive on n >= 0.

    C(n) = n! reproduces the canonical family, (n!)^2 reproduces f2, and
    (n!)^3 reproduces f1. The truncation window must see a convergent tail.
    """
    Z = complex(Z)

    def c_at(n: int) -> float:
        v = float(C(n))
        if not v > 0:
            raise ValueError(f"C({n}) = {v} is not positive")
        return v

    if Z == 0:
        return _normalized(Z, "penson_solomon", np.ones(1, dtype=complex))
    step = lambda n: Z * math.sqrt(c_at(n - 1) / c_at(n))
    c = _series_from_ratio(Z, step, N)
    if N is not None and N >= 3:
        tail = np.abs(c[-2:])
        if not np.all(tail <= np.max(np.abs(c)) * 1e-6):
            raise ValueError("C-sequence window shows no convergent tail for "
                             f"|Z| = {abs(Z)}")
    return _normalized(Z, "penson_solomon", c)


def identify_bound_state_nonlinearity(m: int, basis: LambdaBasis) -> np.ndarray:
    """Measured nonlinearity ratios of the bound expansion |m>_lam.

    Returns r_n = lam sqrt(n) c_n / c_{n-1} for n = 1..m, where c are the
    standard-basis coefficients of |m>_lam. The deformed ladder structure
    predicts r_n = m - n + 1, i.e. nonlinearity factor f(n) = m - n.
    """
    basis._check(m)
    if basis.lam == 0.0:
        raise ValueError("ratios need lam != 0 (the expansion collapses to "
                         "a single component at lam = 0)")
    if m == 0:
        return np.empty(0)
    row = basis._row(m)
    n = np.arange(1, m + 1)
    return basis.lam * np.sqrt(n.astype(float)) * row[1:] / row[:-1]
