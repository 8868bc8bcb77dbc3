"""Parameter sweeps behind the figure subcommands, plus serialization.

Each sweep returns a SweepResult whose series are plain floats or None; None
marks a point that is undefined (vacuum Mandel Q) or outside a convergence
domain, and serializes as an empty CSV cell or JSON null so it can never be
mistaken for zero. Output is deterministic: fixed iteration order, shortest
round-trip float formatting, and a metadata header sufficient to reproduce
the run.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import operators
from .fock import LambdaBasis
from .states import DomainError, lambda_squeezed
from .stats import (_TAIL_UNSETTLED, _frame_moments, number_moments,
                    quadrature_variances, squeezed_moments)

# Covers the radius-scan horizon (2 * 800), so the guard scan, the state
# construction and the statistics share one basis (and, for --truncation
# series, its Gram cache) per lambda.
_SWEEP_MAX_N = 1604
_FIG1_MIN_N = 320
_FIG1_MAX_N = 4000


@dataclass
class SweepResult:
    """One figure's worth of sweep data plus reproduction metadata."""

    axis_name: str
    axis_values: list = field(default_factory=list)
    series: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        names = list(self.series)
        lines = ["# " + json.dumps(self.metadata, sort_keys=True)]
        lines.append(",".join([self.axis_name] + names))
        for i, x in enumerate(self.axis_values):
            cells = [repr(float(x))]
            for name in names:
                v = self.series[name][i]
                cells.append("" if v is None else repr(float(v)))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "axis_name": self.axis_name,
            "axis_values": [float(x) for x in self.axis_values],
            "series": self.series,
            "metadata": self.metadata,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _axis(grid: tuple[float, float, int]) -> list[float]:
    lo, hi, steps = grid
    steps = int(steps)
    if steps < 2:
        raise ValueError("grid needs at least 2 steps")
    if hi < lo:
        raise ValueError("grid max below min")
    return [float(x) for x in np.linspace(lo, hi, steps)]


def _fmt_num(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}j"


def _warn(message: str) -> None:
    print(f"lfock: warning: {message}", file=sys.stderr)


def _metadata(command: str, basis: str, grid, truncation, **axes) -> dict:
    return {"command": command, "basis": basis, **axes,
            "grid": [grid[0], grid[1], int(grid[2])],
            "truncation": "auto" if truncation is None else int(truncation)}


def _admit(xis: list, basis: LambdaBasis, truncation: int | None, where: str,
           vacuum: bool) -> tuple[list, int]:
    """(index, state) for each xi that lambda_squeezed admits, and the count
    of points refused at the guard; a domain error without a guard radius is
    not the guard's and is warned about alone. vacuum False skips xi = 0."""
    admitted, refused = [], 0
    for i, xi in enumerate(xis):
        if xi == 0.0 and not vacuum:
            continue
        try:
            admitted.append((i, lambda_squeezed(complex(xi), basis, truncation)))
        except (DomainError, operators.TruncationError) as exc:
            if isinstance(exc, DomainError) and exc.radius is None:
                _warn(f"{where} xi={xi:g} skipped: {exc}")
            else:
                refused += 1
    return admitted, refused


def sweep_fig1(alphas=None, lambda_range=(0.0, 5.0, 200),
               truncation: int | None = None) -> SweepResult:
    """Mandel Q of the deformed coherent state vs lam, one series per alpha."""
    if alphas is None:
        alphas = [1.0 + 0j, 2.0 + 0j, -1.0 + 0j, -2.0 + 0j]
    alphas = [complex(a) for a in alphas]
    lams = _axis(lambda_range)
    series: dict[str, list] = {f"Q[alpha={_fmt_num(a)}]": [] for a in alphas}
    mu = np.array(alphas, dtype=complex)  # the coherent state is g(0, alpha)
    for lam in lams:
        # p_lambda(m) rises only while |lam+alpha|^2 rho_m^2 >= m, and
        # rho_m <= 1, so the weights peak below |lam+alpha|^2; the horizon
        # adds a tail margin past that peak (cells past the cap stay empty)
        top = max(abs(lam + a) ** 2 for a in alphas)
        horizon = min(_FIG1_MAX_N, int(top + 12.0 * math.sqrt(top)) + 64)
        basis = LambdaBasis(lam, max(_FIG1_MIN_N, horizon))
        reps = _frame_moments(np.zeros_like(mu), mu, basis, truncation)
        for a, rep in zip(alphas, reps):
            if rep is None:
                _warn(f"fig1 lambda={lam:g} alpha={_fmt_num(a)} skipped: "
                      f"{_TAIL_UNSETTLED}")
            series[f"Q[alpha={_fmt_num(a)}]"].append(
                float(rep.mandel_q) if rep is not None and rep.q_defined else None)
    return SweepResult("lambda", lams, series, _metadata(
        "fig1", "lambda", lambda_range, truncation,
        alphas=[[a.real, a.imag] for a in alphas]))


def sweep_fig2(lambdas=None, xi_range=(0.02, 0.9, 150),
               truncation: int | None = None) -> SweepResult:
    """Quadrature variances of the deformed squeezed state vs real xi."""
    if lambdas is None:
        lambdas = [0.5, 1.0, 2.0, 3.0]
    lambdas = [float(g) for g in lambdas]
    xis = _axis(xi_range)
    series: dict[str, list] = {}
    for lam in lambdas:
        tag = _fmt_num(lam)
        col_x: list = [None] * len(xis)
        col_p: list = [None] * len(xis)
        admitted, skipped = _admit(xis, LambdaBasis(lam, _SWEEP_MAX_N),
                                   truncation, f"fig2 lambda={tag}", True)
        for i, st in admitted:
            try:  # a truncated series through its T-operator image
                rep = quadrature_variances(st if truncation is None else st.to_standard())
            except DomainError as exc:
                _warn(f"fig2 lambda={tag} xi={xis[i]:g} skipped: {exc}")
                continue
            col_x[i], col_p[i] = float(rep.var_x), float(rep.var_p)
        if skipped:
            _warn(f"fig2 lambda={tag}: {skipped} xi point(s) outside the "
                  "guarded convergence disk, emitted as empty cells")
        series[f"var_x[lambda={tag}]"] = col_x
        series[f"var_p[lambda={tag}]"] = col_p
    return SweepResult("xi", xis, series, _metadata(
        "fig2", "lambda", xi_range, truncation, lambdas=lambdas))


def sweep_fig3(basis_tag: str, lambdas=None, xi_range=(0.02, 0.9, 150),
               truncation: int | None = None) -> SweepResult:
    """Mandel Q of the deformed squeezed state vs real xi, in either basis."""
    if basis_tag not in ("lambda", "standard"):
        raise ValueError(f"basis must be 'lambda' or 'standard', not {basis_tag!r}")
    if lambdas is None:
        lambdas = [0.5, 1.0, 2.0]
    lambdas = [float(g) for g in lambdas]
    xis = _axis(xi_range)
    series: dict[str, list] = {}
    for lam in lambdas:
        tag = _fmt_num(lam)
        col: list = [None] * len(xis)  # xi = 0 (vacuum): Mandel Q undefined
        admitted, skipped = _admit(xis, LambdaBasis(lam, _SWEEP_MAX_N),
                                   truncation, f"fig3 lambda={tag}", False)
        if truncation is None:  # one Gaussian kernel column
            reps = squeezed_moments([st for _, st in admitted], basis_tag)
        else:
            reps = [_series_moments(st, basis_tag) for _, st in admitted]
        for (i, _), rep in zip(admitted, reps):
            if rep is None:
                skipped += 1
            elif rep.q_defined:
                col[i] = float(rep.mandel_q)
        if skipped:
            _warn(f"fig3 lambda={tag}: {skipped} xi point(s) outside the "
                  "guarded convergence disk, emitted as empty cells")
        series[f"Q[lambda={tag}]"] = col
    return SweepResult("xi", xis, series, _metadata(
        "fig3a" if basis_tag == "lambda" else "fig3b", basis_tag, xi_range,
        truncation, lambdas=lambdas))


def _series_moments(st, basis_tag: str):
    """Moments of a truncated series (Gram route), None past the horizon."""
    try:
        return number_moments(st if basis_tag == "lambda" else st.to_standard())
    except operators.TruncationError:
        return None
