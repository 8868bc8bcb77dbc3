"""Command-line surface: figure sweeps, state dumps, verification suites.

Exit codes: 0 success, 1 usage or parameter error, 2 verification failure,
3 numerical domain error (series outside its convergence domain, or a
tolerance unreachable within the basis horizon).

Arguments are parsed and checked before numpy or any numerical module is
loaded; each command then imports only what it runs (sweeps, plus states
for a squeezed figure; dump, plus states or families for a state dump; verify
for the suites), so --help and a malformed argument cost the interpreter and
argparse alone. A process of its own imports them with the cyclic collector
off and freezes what they made before the command runs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only; numpy loads after parsing
    import numpy as np

# The names of verify.SUITES: the verify module is imported only by the verify
# command, so no other command pays for compiling it at start-up
_VERIFY_SUITES = ("overlaps", "ladders", "matel", "coherent", "squeezed",
                  "stats", "families")

# each state kind and the module that builds it, beside fock and dump
_STATE_KINDS = {"lambda_ket": "fock", "lambda_cs": "states", "lambda_ss": "states",
                "squeezed_vacuum": "states", "f1": "families", "f2": "families",
                "canonical": "families"}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return x


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")
    re = _parse_float(parts[0])
    im = _parse_float(parts[1]) if len(parts) == 2 else 0.0
    return complex(re, im)


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'min:max:steps', got {text!r}")
    try:
        steps = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'min:max:steps', got {text!r}") from None
    lo, hi = _parse_float(parts[0]), _parse_float(parts[1])
    if steps < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 steps")
    if hi < lo:
        raise argparse.ArgumentTypeError("grid max below min")
    return lo, hi, steps


def _parse_truncation(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("truncation must be positive")
    return n


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lfock",
        description="Deformed Fock basis toolkit: figure data sweeps, "
                    "state dumps, and self-verification.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser,
                                required=True, metavar="COMMAND")

    def common(p, truncation_help="series truncation (default auto)"):
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write output here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
        p.add_argument("--truncation", type=_parse_truncation, default=None,
                       metavar="N|auto", help=truncation_help)

    p1 = sub.add_parser("fig1", help="Mandel Q of the coherent family vs lambda")
    p1.add_argument("--alpha", action="append", type=_parse_complex,
                    dest="alphas", metavar="RE[,IM]",
                    help="amplitude, repeatable (default 1, 2, -1, -2)")
    p1.add_argument("--grid", type=_parse_grid, default=(0.0, 5.0, 200),
                    metavar="MIN:MAX:STEPS", help="lambda grid (default 0:5:200)")
    common(p1, "rows of the moment sum; a cell whose m^2 P(m) tail is "
               "not below 1e-12 there is left empty (default auto)")

    # the squeezed figures: name, basis tag of the Mandel Q (None for fig2;
    # _dispatch reads it as args.basis), help, default lambdas
    for name, basis_tag, what, lambdas in (
            ("fig2", None, "quadrature variances of the squeezed family vs xi",
             "0.5, 1, 2, 3"),
            ("fig3a", "lambda", "Mandel Q of the squeezed family vs xi, "
                                "lambda basis", "0.5, 1, 2"),
            ("fig3b", "standard", "Mandel Q of the squeezed family vs xi, "
                                  "standard basis", "0.5, 1, 2")):
        p = sub.add_parser(name, help=what)
        p.set_defaults(basis=basis_tag)
        p.add_argument("--lambda", action="append", type=_parse_float,
                       dest="lambdas", metavar="LAM",
                       help=f"deformation, repeatable (default {lambdas})")
        p.add_argument("--grid", type=_parse_grid, default=(0.02, 0.9, 150),
                       metavar="MIN:MAX:STEPS", help="xi grid (default 0.02:0.9:150)")
        common(p)

    ps = sub.add_parser("state", help="dump one state's coefficients in both bases")
    ps.add_argument("kind", choices=_STATE_KINDS)
    ps.add_argument("--lambda", type=_parse_float, dest="lam", default=0.0,
                    metavar="LAM", help="deformation parameter (default 0)")
    ps.add_argument("-n", "--index", type=int, default=0, dest="index",
                    help="basis index for lambda_ket (default 0)")
    ps.add_argument("--alpha", type=_parse_complex, default=1.0 + 0.0j,
                    metavar="RE[,IM]", help="amplitude (default 1)")
    ps.add_argument("--xi", type=_parse_complex, default=0.2 + 0.0j,
                    metavar="RE[,IM]", help="squeezing parameter (default 0.2)")
    common(ps)

    pv = sub.add_parser("verify", help="run self-verification suites")
    pv.add_argument("suite", nargs="?", default="all",
                    help=f"one of {', '.join(sorted(_VERIFY_SUITES))}, "
                         "or all (default)")
    pv.add_argument("--out", default=None, metavar="PATH",
                    help="write the report here instead of stdout")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


def _state_text(meta: dict, std: np.ndarray, lamc: np.ndarray,
                fmt: str) -> str:
    from .dump import _pair
    if fmt == "json":
        payload = {
            "metadata": meta,
            "standard": [_pair(z) for z in std],
            "lambda": [_pair(z) for z in lamc],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    d = max(std.shape[0], lamc.shape[0])
    lines = ["# " + json.dumps(meta, sort_keys=True),
             "index,standard_re,standard_im,lambda_re,lambda_im"]
    for i in range(d):
        s = std[i] if i < std.shape[0] else 0.0j
        c = lamc[i] if i < lamc.shape[0] else 0.0j
        lines.append(",".join([str(i),
                               repr(float(s.real)), repr(float(s.imag)),
                               repr(float(c.real)), repr(float(c.imag))]))
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    from . import verify
    reports = verify.run(args.suite)
    lines = []
    ok = True
    for rep in reports:
        ok = ok and rep.ok
        status = "PASS" if rep.ok else "FAIL"
        lines.append(f"suite {rep.name}: {status} (max err {rep.max_err:.3g} "
                     f"over {len(rep.checks)} checks)")
        for c in rep.checks:
            if not c.ok:
                lines.append(f"  FAIL {c.name}: err {c.err:.3g} "
                             f"exceeds tol {c.tol:.3g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 2


def _modules(args) -> tuple:
    """The lfock modules the command runs (each loads fock and numpy)."""
    if args.command == "verify":
        return ("verify",)
    if args.command == "state":
        return ("dump", _STATE_KINDS[args.kind])
    return ("sweeps",) if args.command == "fig1" else ("sweeps", "states")


def _load(args, own_process: bool) -> None:
    """Import the modules the command runs. In a process of its own, whose
    objects from these imports live until it ends, the cyclic collector is
    off meanwhile, so no collection walks the tens of thousands of objects
    numpy and lfock make; they are then frozen (gc.freeze), so the command's
    own collections skip them too, and the collector is back as it was."""
    enabled = own_process and gc.isenabled()
    if enabled:
        gc.disable()
    try:
        for name in _modules(args):
            importlib.import_module(f".{name}", __package__)
    finally:
        if enabled:
            gc.freeze()
            gc.enable()


def _dispatch(args) -> int:
    if args.command == "state":
        from .dump import _state_payload
        meta, std, lamc = _state_payload(args)
        _emit(_state_text(meta, std, lamc, args.format), args.out)
        return 0
    if args.command == "verify":
        return _cmd_verify(args)
    from . import sweeps
    if args.command == "fig1":
        res = sweeps.sweep_fig1(args.alphas, args.grid, args.truncation)
    elif args.basis is None:  # fig2
        res = sweeps.sweep_fig2(args.lambdas, args.grid, args.truncation)
    else:  # fig3a, fig3b
        res = sweeps.sweep_fig3(args.basis, args.lambdas, args.grid, args.truncation)
    _emit(res.to_csv() if args.format == "csv" else res.to_json(), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command; return its exit code.

    With argv None the command line is the process's own, and the process
    ends when main returns. The command's imports then run without the
    cyclic collector and are frozen before it runs (_load), and on every
    way out, --help, errors and exceptions included, everything still alive
    is moved to the permanent generation (gc.freeze), so the interpreter's
    shutdown collections do not walk it either. A caller that passes argv
    keeps its process, and its collector is left as it was.
    """
    try:
        return _run(argv)
    finally:
        if argv is None:
            gc.freeze()


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    if args.command == "verify" and args.suite not in ("all", *_VERIFY_SUITES):
        # refused before fock, and with it numpy, loads below
        print(f"lfock: error: unknown suite {args.suite!r}; choose from "
              f"{', '.join(sorted(_VERIFY_SUITES))} or 'all'", file=sys.stderr)
        return 1
    _load(args, argv is None)
    from .fock import DomainError, TruncationError
    try:
        return _dispatch(args)
    except DomainError as exc:
        print(f"lfock: domain error: {exc}", file=sys.stderr)
        return 3
    except TruncationError as exc:
        print(f"lfock: truncation error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"lfock: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
