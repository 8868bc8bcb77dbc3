"""Command-line surface: figure sweeps, state dumps, verification suites.

Exit codes: 0 success, 1 usage or parameter error, 2 verification failure,
3 numerical domain error (series outside its convergence domain, or a
tolerance unreachable within the basis horizon).

Arguments are parsed and checked before numpy or any numerical module is
loaded; each command then imports only what it runs (sweeps for a figure,
fock plus states or families for a state dump, verify for the suites), so
--help and a malformed argument cost the interpreter and argparse alone.
"""

from __future__ import annotations

import argparse
import gc
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

_STATE_KINDS = ("lambda_ket", "lambda_cs", "lambda_ss", "squeezed_vacuum",
                "f1", "f2", "canonical")


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


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _residual(w: np.ndarray, v: np.ndarray) -> float:
    import numpy as np
    return float(np.linalg.norm(w)) / float(np.linalg.norm(v))


def _norm_gram(form: tuple[float, float]) -> dict:
    """{"norm_gram": sqrt(c^H G c)} from form, that norm and its condition
    number, or {} with a warning where the form cancels past 1e-12; the
    standard column does not depend on it."""
    from .fock import _cancels, _warn
    norm, kappa = form
    if _cancels(kappa):
        _warn(f"norm_gram omitted: the Gram form cancels over the "
              f"series (condition number {kappa:.3g})")
        return {}
    return {"norm_gram": norm}


def _state_payload(args) -> tuple[dict, np.ndarray, np.ndarray]:
    """Build the requested state; return (metadata, standard, lambda) columns.

    lambda_ket needs fock alone; lambda_cs, lambda_ss and squeezed_vacuum
    also load states, and f1, f2 and canonical load families."""
    import numpy as np

    from . import fock
    from .fock import LambdaBasis, LambdaExpansion, _ladder
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
        lamc = np.asarray(st.expansion.coeffs, dtype=complex)
        meta.update(alpha=_pair(alpha), residual_kind="annihilation_eigenvector",
                    residual=_residual(_ladder(std) - alpha * std, std),
                    **_norm_gram(st.expansion.norm_and_condition()))
    elif kind == "lambda_ss":
        from . import states
        xi = complex(args.xi)
        st = states.lambda_squeezed(xi, LambdaBasis(lam, states._SQUEEZED_MAX_N),
                                    trunc)
        std = st.to_standard()
        lamc = np.asarray(st.expansion.coeffs, dtype=complex)
        v = np.append(std, [0j, 0j])
        meta.update(xi=_pair(xi), residual_kind="squeezing_kernel",
                    residual=_residual(_ladder(v) - xi * _ladder(v, lam), v),
                    norm_constant=st.norm_constant,
                    **_norm_gram(st.norm_and_condition()))
    elif kind == "squeezed_vacuum":
        from . import states
        xi = complex(args.xi)
        std = states.squeezed_vacuum(xi, trunc)
        lamc = fock.to_lambda(std, LambdaBasis(lam, max(std.shape[0], 2)))
        v = np.append(std, [0j, 0j])
        meta.update(xi=_pair(xi), residual_kind="squeezing_kernel",
                    residual=_residual(_ladder(v) - xi * _ladder(v, 0.0), v))
    else:  # appendix families: f1, f2, canonical
        from . import families
        alpha = complex(args.alpha)
        fam = families.nonlinear_cs(kind, alpha, trunc)
        std = np.asarray(fam.coeffs, dtype=complex)
        lamc = fock.to_lambda(std, LambdaBasis(lam, max(std.shape[0], 2)))
        g = {"f1": lambda n: n ** 1.5, "f2": lambda n: float(n),
             "canonical": math.sqrt}[kind]
        resid = max((abs(std[n] - std[n - 1] * alpha / g(n))
                     for n in range(1, std.shape[0])), default=0.0)
        meta.update(alpha=_pair(alpha), coeff_rule=fam.coeff_rule,
                    residual_kind="coefficient_recurrence", residual=float(resid),
                    norm_constant=fam.norm_constant)
    meta["norm_euclidean"] = float(np.linalg.norm(std))
    return meta, std, lamc


def _state_text(meta: dict, std: np.ndarray, lamc: np.ndarray,
                fmt: str) -> str:
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


def _dispatch(args) -> int:
    if args.command == "state":
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
    ends when main returns: on every way out, --help, errors and exceptions
    included, everything still alive is moved to the permanent generation
    (gc.freeze), so the interpreter's shutdown collections do not walk the
    tens of thousands of objects numpy and lfock made at import. A caller
    that passes argv keeps its process, and its collector is left as it was.
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
