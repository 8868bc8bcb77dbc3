"""Seeded job lists for the three benchmark workloads.

A job is one `lfock` command line. A workload's job list is one *pass*; the
runner repeats whole passes in a closed loop, one job at a time, each job in a
fresh interpreter. The seed fixes every parameter; lfock only ever sees the
generated command-line arguments.

Parameters are drawn stratified (one draw per sub-range) so that the amount of
work in a pass barely depends on the seed, while the values themselves do.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("coherent_scan", "squeezed_scan", "oneshot")

VERIFY_SUITES = ("overlaps", "ladders", "matel", "coherent", "squeezed",
                 "stats", "families")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the checker needs to know about it.

    kind is the subcommand (fig1, fig2, fig3a, fig3b, state, verify).
    boundary marks a probe at the parameter boundary whose seed behaviour is a
    documented defect. sample lists, for fig3 jobs, the flat cell indices
    (xi_index * n_lambdas + lambda_index) recomputed by the dense oracle.
    """

    kind: str
    args: tuple[str, ...]
    boundary: bool = False
    sample: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        return " ".join(self.args)


def _num(x: float) -> str:
    return repr(round(x, 6))


def _complex_arg(r: float, theta: float) -> str:
    z = complex(r * math.cos(theta), r * math.sin(theta))
    return f"{_num(z.real)},{_num(z.imag)}"


def _stratified(rng: random.Random, lo: float, hi: float,
                count: int) -> list[float]:
    """One uniform draw from each of `count` equal slices of [lo, hi], in
    seeded order: the values vary with the seed, their spread barely does."""
    width = (hi - lo) / count
    draws = [rng.uniform(lo + k * width, lo + (k + 1) * width)
             for k in range(count)]
    rng.shuffle(draws)
    return draws


def _coherent_jobs(rng: random.Random, count: int) -> list[Job]:
    # per job: a positive real, a negative real and two complex amplitudes
    # (upper and lower half plane), |alpha| in [0.5, 2]
    mags = [_stratified(rng, 0.5, 2.0, count) for _ in range(4)]
    lows = _stratified(rng, 0.0, 0.25, count)
    highs = _stratified(rng, 4.75, 5.0, count)
    jobs = []
    for k in range(count):
        alphas = [_num(mags[0][k]), _num(-mags[1][k]),
                  _complex_arg(mags[2][k], rng.uniform(0.0, math.pi)),
                  _complex_arg(mags[3][k], rng.uniform(math.pi, 2 * math.pi))]
        args = ["fig1"] + [f"--alpha={a}" for a in alphas] \
            + [f"--grid={_num(lows[k])}:{_num(highs[k])}:200"]
        jobs.append(Job("fig1", tuple(args)))
    return jobs


_FIG_STEPS = 150
_SAMPLES_PER_FIG3 = 6
_LAMBDA_BANDS = ((0.3, 1.0), (1.0, 2.0), (2.0, 3.0))


def _squeezed_jobs(rng: random.Random, kinds: list[str]) -> list[Job]:
    # per job: one lambda from each band, so every job has a guard-free, a
    # lightly guarded and a heavily guarded column
    count = len(kinds)
    lams = [_stratified(rng, lo, hi, count) for lo, hi in _LAMBDA_BANDS]
    lows = _stratified(rng, 0.01, 0.05, count)
    highs = _stratified(rng, 0.85, 0.9, count)
    jobs = []
    for k, kind in enumerate(kinds):
        args = [kind] + [f"--lambda={_num(band[k])}" for band in lams] \
            + [f"--grid={_num(lows[k])}:{_num(highs[k])}:{_FIG_STEPS}"]
        sample: tuple[int, ...] = ()
        if kind != "fig2":
            sample = tuple(sorted(rng.sample(
                range(_FIG_STEPS * len(lams)), _SAMPLES_PER_FIG3)))
        jobs.append(Job(kind, tuple(args), sample=sample))
    return jobs


def _state_job(kind: str, rng: random.Random) -> Job:
    def point(r_lo: float, r_hi: float) -> str:
        return _complex_arg(rng.uniform(r_lo, r_hi), rng.uniform(0, 2 * math.pi))

    args = ["state", kind, f"--lambda={_num(rng.uniform(-3.0, 3.0))}"]
    if kind == "lambda_ket":
        args.append(f"--index={rng.randint(0, 40)}")
    elif kind == "lambda_ss":   # well inside the guarded disk 0.95 R(lam)
        args.append(f"--xi={point(0.05, 0.5)}")
    elif kind == "squeezed_vacuum":
        args.append(f"--xi={point(0.05, 0.8)}")
    else:  # lambda_cs and the appendix families
        args.append(f"--alpha={point(0.2, 2.0)}")
    args.append(f"--format={rng.choice(('csv', 'json'))}")
    return Job("state", tuple(args))


# Reproduced defects at the parameter boundary (ROADMAP items 3 and 4). Each
# counts as a failed operation until the program meets the README contract.
BOUNDARY = (
    Job("state", ("state", "lambda_ket", "-n", "2", "--lambda", "inf"), True),
    Job("state", ("state", "lambda_cs", "--alpha", "-2", "--lambda", "400"), True),
    Job("state", ("state", "lambda_ss", "--lambda", "nan"), True),
    Job("fig1", ("fig1", "--alpha", "-1", "--grid", "20:20.1:2"), True),
)


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The seeded job list of one pass of `workload`."""
    rng = random.Random(f"lfock-bench/{workload}/{seed}")
    if workload == "coherent_scan":
        return _coherent_jobs(rng, 4)
    if workload == "squeezed_scan":
        kinds = ["fig2", "fig2", "fig3a", "fig3a", "fig3b", "fig3b"]
        rng.shuffle(kinds)
        return _squeezed_jobs(rng, kinds)
    if workload == "oneshot":
        jobs = [_state_job(k, rng) for k in
                ("lambda_ket", "lambda_cs", "lambda_ss", "squeezed_vacuum",
                 "f1", "f2", "canonical")]
        jobs += [Job("verify", ("verify", s)) for s in VERIFY_SUITES]
        jobs += list(BOUNDARY)
        rng.shuffle(jobs)
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
