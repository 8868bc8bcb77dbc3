"""Run one `lfock` command with spans around each layer's public calls.

    python spans.py OUT.json ARGS...

behaves like `lfock ARGS...` (same stdout, stderr and exit code) and writes
per-span aggregates to OUT.json on exit: for each span name its call count,
total time and self time (total minus the time of child spans), plus the
counters that explain the work (largest Gram size, guarded squeezed calls,
figure points). lfock itself is not modified: the wrappers are installed from
here, in every lfock namespace that holds the wrapped object.
"""

from __future__ import annotations

import json
import sys
import time

import lfock.cli
from lfock import (families, fock, operators, specfun, states, stats, sweeps,
                   verify)

# (owner, attribute, span name). Owners that are classes get their method
# replaced; module functions are replaced wherever lfock imported them.
TRACED = (
    (specfun, "laguerre0_log", "specfun.laguerre"),
    (fock.LambdaBasis, "__init__", "fock.basis_build"),
    (fock, "gram", "fock.gram"),
    (fock.LambdaExpansion, "to_standard", "fock.to_standard"),
    (fock, "to_lambda", "fock.to_lambda"),
    (states, "radius_min", "states.radius_min"),
    (states, "lambda_coherent", "states.coherent"),
    (states, "lambda_squeezed", "states.squeezed"),
    (stats, "number_moments", "stats.moments"),
    (stats, "quadrature_variances", "stats.quadratures"),
    (operators, "build_ladders", "operators.ladders"),
    (operators, "eigen_residual", "operators.residual"),
    (operators, "expm_apply", "operators.expm"),
    (families, "nonlinear_cs", "families.nonlinear_cs"),
    (verify, "run_suite", "verify"),
    (sweeps, "sweep_fig1", "sweeps"),
    (sweeps, "sweep_fig2", "sweeps"),
    (sweeps, "sweep_fig3", "sweeps"),
    (sweeps.SweepResult, "to_csv", "cli.emit"),
    (sweeps.SweepResult, "to_json", "cli.emit"),
    (lfock.cli, "_state_text", "cli.emit"),
    (lfock.cli, "_emit", "cli.emit"),
)


class Recorder:
    """Span stack plus per-name aggregates, kept in memory until exit."""

    def __init__(self):
        self.stack: list[list] = []     # [name, start, child_time]
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters = {"fock.gram_max_size": 0, "states.guarded": 0,
                         "sweeps.points": 0}

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            frame = [self._name(name, args), time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except states.DomainError:
                if name == "states.squeezed":
                    self.counters["states.guarded"] += 1
                raise
            finally:
                self._close(frame)
            self._count(name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _name(name: str, args: tuple) -> str:
        return f"verify.{args[0]}" if name == "verify" else name

    def _close(self, frame: list) -> None:
        span = time.perf_counter() - frame[1]
        self.stack.pop()
        if self.stack:
            self.stack[-1][2] += span
        entry = self.agg.setdefault(frame[0], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span
        entry[2] += span - frame[2]

    def _count(self, name: str, args: tuple, result) -> None:
        if name == "fock.gram":
            size = args[1] if len(args) > 1 else 0
            self.counters["fock.gram_max_size"] = max(
                self.counters["fock.gram_max_size"], int(size))
        elif name == "sweeps":
            self.counters["sweeps.points"] += \
                len(result.axis_values) * len(result.series)

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items()
                      if n == "lfock" or n.startswith("lfock.")]
        for owner, attr, name in TRACED:
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)

    def dump(self, path: str) -> None:
        payload = {"spans": self.agg, "counters": self.counters}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.install()
    try:
        return lfock.cli.main(argv)
    finally:
        rec.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
