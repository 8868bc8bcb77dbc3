"""Compare what two lfock source trees print, command by command.

    python3 tools/outputs_diff.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are `src` directories (each holding `lfock/`). The
commands are every job of the three benchmark workloads (bench/workloads.py)
at seeds 1-10 and 101-110, each distinct command line once, plus the fixed
edge list EDGES. Each command runs once per tree, in a fresh interpreter with
BLAS pinned to one thread as bench/run.py pins it, from that tree's own
temporary directory, where a relative `--out PATH` lands; the file is read
and removed after the command. Prints every command whose stdout, stderr,
exit code or `--out` file differs (a file missing from one tree, or from a
tree whose command exited 0, counts as differing), with, where both trees
print the same count of numbers (stdout, then the file), how many numbers
moved and the largest move; then a count. Exits 1 if any differ, 0
otherwise.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))
from run import BLAS_PIN, CLI  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

SEEDS = tuple(range(1, 11)) + tuple(range(101, 111))
EDGES = (
    ("fig1",), ("fig2",), ("fig3a",), ("fig3b",), ("verify", "all"),
    ("fig1", "--alpha=-30", "--grid=29.9:30:5"),
    ("fig1", "--alpha=0", "--grid=-1:1:5"),
    ("fig1", "--alpha=57.0317", "--grid=0:0:2"),
    ("fig1", "--alpha=57.0318", "--grid=0:0:2"),
    # frame-weight horizons: a block mixing large and small |lam+alpha|, a
    # horizon past 2048 rows, and fig3a next to the guard at lam 10 and 40
    ("fig1", "--alpha=20", "--alpha=0.5", "--grid=0:3:30"),
    ("fig1", "--alpha=40", "--grid=0:0:2"),
    ("fig3a", "--lambda=10", "--grid=0.01:0.57:20"),
    ("fig3a", "--lambda=40", "--grid=0.01:0.16:5"),
    ("fig1", "--truncation=1"), ("fig1", "--truncation=2"),
    ("fig1", "--truncation=5"), ("fig1", "--truncation=40"),
    ("fig1", "--truncation=100"), ("fig1", "--truncation=400"),
    ("fig1", "--truncation=4001"),
    ("fig3a", "--lambda=0"), ("fig3a", "--lambda=-1.5"),
    ("fig3a", "--lambda=50"), ("fig3a", "--truncation=40"),
    ("fig3a", "--lambda=1", "--grid=-0.1:0.1:3"),
    ("fig3a", "--lambda=0", "--grid=-0.1:0.1:3"),
    ("fig3b", "--lambda=1", "--grid=-0.1:0.1:3"),
    ("fig3a", "--truncation=40", "--lambda=1", "--grid=-0.1:0.1:3"),
    ("fig2", "--truncation=300"),
    ("fig3b", "--truncation=40", "--lambda=2", "--grid=-0.9:0.9:37"),
    *((fig, "--truncation=1", "--lambda=1", "--grid=0.1:0.3:3")
      for fig in ("fig2", "fig3a", "fig3b")),
    ("fig2", "--truncation=40"), ("fig3b", "--truncation=300"),
    ("fig3a", "--truncation=800", "--lambda=1", "--grid=-0.9:0.9:37"),
    ("state", "lambda_ss", "--xi=0.3", "--lambda=1", "--truncation=60"),
    # truncated squeezed dumps whose norm_gram moves by rounding alone
    ("state", "lambda_ss", "--xi=0.1,-0.6", "--lambda=3", "--truncation=300"),
    ("state", "lambda_ss", "--xi=-0.5", "--lambda=-2", "--truncation=800",
     "--format=json"),
    ("state", "lambda_ss", "--xi=0.2,0.3", "--lambda=0.5", "--truncation=20"),
    # norm_gram dumps over the 751 even Gram rows of a 1501-term ket, and
    # over 200 rows of both parities
    ("state", "lambda_ket", "-n", "1500", "--lambda", "30"),
    ("state", "lambda_cs", "--lambda=-3", "--alpha=2,1", "--truncation=200"),
    # the coherent auto truncation where the frame-weight peak lies far
    # past the coefficients' fall, and the vacuum states' truncation check
    ("state", "lambda_cs", "--lambda=30", "--alpha=1"),
    ("state", "lambda_cs", "--lambda=-3", "--alpha=8,3"),
    ("state", "lambda_cs", "--alpha=0", "--truncation=600"),
    ("state", "lambda_ss", "--xi=0", "--truncation=900"),
    ("state", "lambda_cs", "--alpha=0", "--truncation=5"),
    ("state", "lambda_ss", "--xi=0", "--truncation=3"),
    # the exact squeezed vacuum and canonical states' own frame coefficients
    # (the mpmath corpus of tests/test_kernel.py), and the truncated
    # vectors of the same length, whose column stays their finite expansion
    *(("state", kind, flag, f"--lambda={lam}", *cut)
      for kind, flag, lam, n in (
          ("squeezed_vacuum", "--xi=0.3", 10, 61),
          ("squeezed_vacuum", "--xi=-0.6,0.2", 3, 155),
          ("squeezed_vacuum", "--xi=0.3,-0.35", -3, 93),
          ("canonical", "--alpha=1", 10, 35),
          ("canonical", "--alpha=2", 5, 53),
          ("canonical", "--alpha=-1.5,0.5", -4, 45))
      for cut in ((), (f"--truncation={n}",))),
    # the squeezed vacuum's auto truncation on either side of its refusal
    ("state", "squeezed_vacuum", "--xi=0.999"),
    ("state", "squeezed_vacuum", "--xi=0.9995"),
    # the guard: lam where the phase rays' radii differ, negative, huge and
    # tiny lam, a state it refuses at lam 0 and a state at a negative lam
    ("fig2", "--lambda=1.089041095890411", "--lambda=2.0753424657534247"),
    ("fig3a", "--lambda=-2.9", "--lambda=-0.3"), ("fig2", "--lambda=100"),
    ("fig3b", "--lambda=1e-300"),
    ("state", "lambda_ss", "--xi=0.9,0.3", "--lambda=0"),
    ("state", "lambda_ss", "--xi=0.3", "--lambda=-4"),
    ("--help",), ("fig1", "--help"),
    ("state", "lambda_ss", "--lambda", "nan"),
    ("state", "lambda_ket", "-n", "2", "--lambda", "inf"),
    ("fig2", "--grid", "0:1:1"), ("verify", "nosuch"),
    ("fig1", "--grid", "0:1:3", "--out", "/nonexistent/x.csv"),
    # successful --out writes, compared file against file
    ("fig1", "--grid=0:5:40", "--out", "fig1.csv"),
    ("fig3a", "--format=json", "--out", "fig3a.json"),
    ("state", "lambda_ss", "--xi=0.3", "--lambda=1", "--format=json",
     "--out", "lambda_ss.json"),
    ("verify", "ladders", "--out", "verify.txt"),
)


def commands() -> list[tuple[str, ...]]:
    """Workload jobs in seed order, then EDGES, each command line once."""
    jobs = [job.args for workload in WORKLOADS for seed in SEEDS
            for job in jobs_for(workload, seed)]
    return list(dict.fromkeys(jobs + list(EDGES)))


def run(src: str, args: tuple[str, ...], cwd: str) -> tuple:
    """Exit code, stdout, stderr and the --out file's bytes (None if the
    command has no --out or wrote no file)."""
    proc = subprocess.run([sys.executable, "-c", CLI, *args],
                          stdin=subprocess.DEVNULL, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src, **BLAS_PIN),
                          cwd=cwd)
    written = None
    if "--out" in args:
        path = os.path.join(cwd, args[args.index("--out") + 1])
        if os.path.exists(path):
            with open(path, "rb") as fh:
                written = fh.read()
            os.remove(path)
    return proc.returncode, proc.stdout, proc.stderr, written


_NUMBER = re.compile(rb"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf")


def moves(out0: bytes, out1: bytes) -> str:
    """How many of the numbers in out0 moved in out1, and the largest move,
    or '' where the two hold different counts of numbers."""
    old, new = _NUMBER.findall(out0), _NUMBER.findall(out1)
    if len(old) != len(new):
        return ""
    moved = [(abs(float(b) - float(a)), a, b) for a, b in zip(old, new) if a != b]
    if not moved:
        return ""
    top, a, b = max(moved)
    return (f"; {len(moved)} numbers moved, the largest by {top:.3g} "
            f"({a.decode()} -> {b.decode()})")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/outputs_diff.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 2
    srcs = [os.path.abspath(src) for src in argv]
    differ = 0
    todo = commands()
    with tempfile.TemporaryDirectory() as cwd0, \
            tempfile.TemporaryDirectory() as cwd1, ThreadPoolExecutor(2) as pool:
        for args in todo:
            (code0, out0, err0, file0), (code1, out1, err1, file1) = pool.map(
                lambda src, cwd: run(src, args, cwd), srcs, (cwd0, cwd1))
            missing = "--out" in args and any(
                code == 0 and written is None
                for code, written in ((code0, file0), (code1, file1)))
            what = [name for name, same in (("stdout", out0 == out1),
                                            ("stderr", err0 == err1),
                                            ("exit code", code0 == code1),
                                            ("--out file", file0 == file1
                                             and not missing))
                    if not same]
            if what:
                differ += 1
                print(f"lfock {' '.join(args)}: {', '.join(what)} differ "
                      f"(exit {code0} -> {code1})"
                      f"{moves(out0 + (file0 or b''), out1 + (file1 or b''))}",
                      flush=True)
    print(f"{differ} of {len(todo)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
