"""Parameter sweeps behind the figure subcommands, plus serialization.

Each sweep returns a SweepResult whose series are plain floats or None; None
marks a point that is undefined (a zero-mean Mandel Q) or outside a
convergence domain, and serializes as an empty CSV cell or JSON null so it can
never be mistaken for zero. Output is deterministic: fixed iteration order,
shortest round-trip float formatting, and a metadata header sufficient to
reproduce the run.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .fock import DomainError, LambdaBasis, _check_truncation, _warn
from .specfun import _laguerre_log_floor
from .stats import (_TAIL_UNSETTLED, _frame_moments, _tail_horizon,
                    quadrature_variances, squeezed_moments)

_FIG1_MAX_N = 4000
# fig1 lam values per coherent weight pass: whole columns of 3-D weight
# arrays would cost peak memory, one lam at a time Python overhead
_FIG1_BLOCK = 25


class SweepResult:
    """One figure's worth of sweep data plus reproduction metadata."""

    def __init__(self, axis_name: str, axis_values: list | None = None,
                 series: dict | None = None, metadata: dict | None = None):
        self.axis_name = axis_name
        self.axis_values = [] if axis_values is None else axis_values
        self.series = {} if series is None else series
        self.metadata = {} if metadata is None else metadata

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


def _metadata(command: str, basis: str, grid, truncation, **axes) -> dict:
    return {"command": command, "basis": basis, **axes,
            "grid": [grid[0], grid[1], int(grid[2])],
            "truncation": "auto" if truncation is None else int(truncation)}


def _squeezed_sweep(command: str, basis_tag: str, names: tuple, lambdas,
                    xi_range, truncation: int | None, measure) -> SweepResult:
    """Series name[lambda=tag] per name and lam: the exact lambda_squeezed at
    every xi on one basis per lam, then one measure(states) call giving each
    state its cells (a tuple in the order of names) or, as a string, why it
    has none. An explicit truncation N changes no cell but empties those whose
    exact series has not settled at N terms (_squeezed_settled). Guard
    refusals are counted per column, every other empty cell is warned about
    with its reason; a cell measure leaves None (a zero-mean Mandel Q, as at
    xi = 0 in the standard basis) is empty without a warning."""
    # states and its guard scan load here, so fig1 never compiles them
    from .states import _SQUEEZED_MAX_N, _squeezed_settled, lambda_squeezed
    lambdas = [float(g) for g in lambdas]
    xis = _axis(xi_range)
    if truncation is not None:
        _check_truncation(truncation, _SQUEEZED_MAX_N // 2 + 1)
        unsettled = f"normalization series not settled at the truncation {truncation}"
    series: dict[str, list] = {}
    for lam in lambdas:
        here = f"{command[:4]} lambda={_fmt_num(lam)}"  # fig3a, fig3b: fig3
        basis = LambdaBasis(lam, _SQUEEZED_MAX_N)
        built, refused = [], 0
        for i, xi in enumerate(xis):
            try:
                built.append((i, lambda_squeezed(complex(xi), basis)))
            except DomainError as exc:
                if exc.radius is None:
                    _warn(f"{here} xi={xi:g} skipped: {exc}")
                else:
                    refused += 1
        cells = [(None,) * len(names)] * len(xis)
        for (i, st), out in zip(built, measure([st for _, st in built])):
            if truncation is not None and not _squeezed_settled(
                    st.xi, basis, truncation - 1):
                out = unsettled
            if isinstance(out, str):
                _warn(f"{here} xi={xis[i]:g} skipped: {out}")
            else:
                cells[i] = out
        if refused:
            _warn(f"{here}: {refused} xi point(s) outside the guarded "
                  "convergence disk, emitted as empty cells")
        for name, column in zip(names, zip(*cells)):
            series[f"{name}[lambda={_fmt_num(lam)}]"] = list(column)
    return SweepResult("xi", xis, series, _metadata(
        command, basis_tag, xi_range, truncation, lambdas=lambdas))


def sweep_fig1(alphas=None, lambda_range=(0.0, 5.0, 200),
               truncation: int | None = None) -> SweepResult:
    """Mandel Q of the deformed coherent state vs lam, one series per alpha."""
    if alphas is None:
        alphas = [1.0 + 0j, 2.0 + 0j, -1.0 + 0j, -2.0 + 0j]
    alphas = [complex(a) for a in alphas]
    lams = _axis(lambda_range)
    labels = [_fmt_num(a) for a in alphas]
    series: dict[str, list] = {f"Q[alpha={a}]": [] for a in labels}
    columns = [series[f"Q[alpha={a}]"] for a in labels]
    mu = np.array(alphas, dtype=complex)  # the coherent state is g(0, alpha)
    xi = np.zeros_like(mu)
    unsettled = _TAIL_UNSETTLED
    if truncation is not None:
        _check_truncation(truncation, _FIG1_MAX_N + 1)
        unsettled = f"m^2 P(m) tail not below 1e-12 at the truncation {truncation}"
    # the weights peak below |lam+alpha|^2 (they rise only while |lam+alpha|^2
    # rho_m^2 >= m, rho_m <= 1); the row rule int((x + 6)^2 - 36) + 64 at
    # x = |lam+alpha| bounds the accepted range and caps each block's tables
    tops = [max(abs(lam + a) ** 2 for a in alphas) for lam in lams]
    horizons = [int(top + 12.0 * math.sqrt(top)) + 64 for top in tops]
    if max(horizons) > _FIG1_MAX_N:
        raise ValueError(f"|lambda+alpha| = {math.sqrt(max(tops)):g} needs max_n "
                         f"{max(horizons)}, beyond {_FIG1_MAX_N} (largest accepted "
                         f"|lambda+alpha| {math.sqrt(_FIG1_MAX_N - 27) - 6:.4f})")
    for start in range(0, len(lams), _FIG1_BLOCK):
        chunk = lams[start: start + _FIG1_BLOCK]
        max_n = max(horizons[start: start + _FIG1_BLOCK])
        if truncation is None:
            # a lower bound on ln L_M only raises the tail bound, so the M it
            # certifies is at or past the tables' own M*, and tables to it
            # plus 8 rows hold the pass: their prefixes are the longer ones
            first, _ = _tail_horizon(xi, np.add.outer(chunk, mu),
                                     _laguerre_log_floor(chunk, max_n))
            max_n = min(max_n, first + 8)
        else:
            max_n = max(truncation - 1, 1)
        block = [LambdaBasis(lam, max_n) for lam in chunk]
        for basis, reps in zip(block, _frame_moments(xi, mu, block, truncation)):
            for a, column, rep in zip(labels, columns, reps):
                if rep is None:
                    _warn(f"fig1 lambda={basis.lam:g} alpha={a} skipped: {unsettled}")
                column.append(float(rep.mandel_q) if rep is not None and rep.q_defined
                              else None)
    return SweepResult("lambda", lams, series, _metadata(
        "fig1", "lambda", lambda_range, truncation,
        alphas=[[a.real, a.imag] for a in alphas]))


def _quadrature_cells(column: list):
    """(var_x, var_p) per state: each is exact, so its quadratures are the
    closed form, which never refuses."""
    for st in column:
        rep = quadrature_variances(st)
        yield float(rep.var_x), float(rep.var_p)


def sweep_fig2(lambdas=None, xi_range=(0.02, 0.9, 150),
               truncation: int | None = None) -> SweepResult:
    """Quadrature variances of the deformed squeezed state vs real xi."""
    if lambdas is None:
        lambdas = [0.5, 1.0, 2.0, 3.0]
    return _squeezed_sweep("fig2", "lambda", ("var_x", "var_p"), lambdas,
                           xi_range, truncation, _quadrature_cells)


def sweep_fig3(basis_tag: str, lambdas=None, xi_range=(0.02, 0.9, 150),
               truncation: int | None = None) -> SweepResult:
    """Mandel Q of the deformed squeezed state vs real xi, in either basis."""
    if basis_tag not in ("lambda", "standard"):
        raise ValueError(f"basis must be 'lambda' or 'standard', not {basis_tag!r}")
    if lambdas is None:
        lambdas = [0.5, 1.0, 2.0]

    def mandel_cells(column: list) -> list:
        return [_TAIL_UNSETTLED if rep is None
                else (float(rep.mandel_q) if rep.q_defined else None,)
                for rep in squeezed_moments(column, basis_tag)]

    return _squeezed_sweep("fig3a" if basis_tag == "lambda" else "fig3b",
                           basis_tag, ("Q",), lambdas, xi_range, truncation,
                           mandel_cells)
