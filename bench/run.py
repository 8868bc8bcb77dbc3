"""lfock benchmark: closed-loop CLI workloads with oracle-checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is coherent_scan, squeezed_scan or oneshot (BENCHMARK.json says what
each stresses and why). One client runs the workload's seeded job list in
passes until S seconds have elapsed, at least one whole pass; each job is one
`lfock` command in a fresh interpreter, one job at a time, with BLAS pinned
to one thread. lfock is imported from the checkout's own `src/`.

With --trace 0 the end-to-end metrics are measured:

  setup_s      interpreter start until `lfock.cli` is imported; median over
               spawns that only do the import
  wall_s       spawn-to-exit time summed over the job list, each job's time
               the median over its runs
  cpu_s        user+sys CPU time of the job processes, summed the same way
  job_p50_s    median job latency
  peak_rss_mb  largest max-RSS of any job

Times are scaled by a machine-speed reference timed next to every process
(see REFERENCE below). Printed in the report but not in the result line:

  job_tail_s   job latency at the highest percentile that leaves at least ten
               jobs beyond it, with the percentile and job count; with the
               ten-odd jobs of a scan run it sits below the median, so it is
               too unsteady to gate on
  fail_ratio   failed / attempted operations of the first pass (also carried
               by the `failed` and `attempted` fields); 0 on squeezed_scan at
               the seed
  max_rel_err  worst scaled error |got - ref| / max(1, |ref|) over all checks;
               it moves with which parameters a seed draws

With --trace 1 the passes run traced, untraced, untraced, traced (repeated
whole), each process timed against the reference. A traced job runs through
spans.py, which wraps each layer's public functions; the per-layer metrics
are per-pass call counts and times (inclusive, except sweeps.self_s), medians
over traced passes, plus the import breakdown from `python -X importtime` and
the tracing overhead trace_overhead_s: wall_s of the traced passes minus
wall_s of the untraced ones, both reference-scaled sums of per-job medians.
As a difference of two ~10 s sums that each vary by several percent between
runs, it resolves only overheads above about half a second and can read
negative below that. The counts must repeat exactly between traced passes.

Outputs are checked after the timed region (oracles.py). The first pass is
always whole; `attempted` and `failed` count its operations only, so they are
fixed for a seed and do not grow with speed. Every later run of a job must
print the same bytes and exit the same way. The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. `correct` is
false when any operation failed outside the documented seed defects, when a
repeated job printed something else, or when traced counts did not repeat.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import oracles
from workloads import VERIFY_SUITES, WORKLOADS, Job, jobs_for

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "lfock-bench")
SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spans.py")

CLI = "import sys; from lfock.cli import main; sys.exit(main())"
SETUP_SPAWNS = 5
# The machine-speed reference: a fixed task that shares no code with lfock
# but has the shape of a job (interpreter start, numpy/scipy import, a loop of
# small array operations). On a shared host the speed of every process drifts
# by up to +-20% over minutes; timing the reference next to each job and
# scaling by REF_NOMINAL_S / (its time) cancels that drift, which cuts the
# run-to-run quartile spread of wall_s roughly threefold. REF_NOMINAL_S is
# the reference's typical time on the 2-core Xeon the baseline was recorded
# on, so the scaled figures stay in seconds.
REFERENCE = """import numpy as np, scipy.linalg
x = np.linspace(0.0, 1.0, 256)
s = 0.0
for k in range(3000):
    s += float(np.sum(np.exp(-k * x) * x))
"""
REF_NOMINAL_S = 0.4
IMPORTTIME_SPAWNS = 3
JOB_TIMEOUT_S = 60.0
LAST_PASS_START_S = 120.0       # never start a pass this late into a run

# per-layer metric -> (span or counter, field); field 0 calls, 1 total, 2 self
SPAN_METRICS = {
    "specfun.laguerre_calls": ("specfun.laguerre", 0),
    "specfun.laguerre_s": ("specfun.laguerre", 1),
    "fock.basis_builds": ("fock.basis_build", 0),
    "fock.basis_build_s": ("fock.basis_build", 1),
    "fock.gram_calls": ("fock.gram", 0),
    "fock.gram_s": ("fock.gram", 1),
    "states.radius_min_calls": ("states.radius_min", 0),
    "states.radius_min_s": ("states.radius_min", 1),
    "states.squeezed_calls": ("states.squeezed", 0),
    "states.squeezed_s": ("states.squeezed", 1),
    "stats.quadratures_calls": ("stats.quadratures", 0),
    "stats.quadratures_s": ("stats.quadratures", 1),
    "stats.moments_calls": ("stats.moments", 0),
    "stats.moments_s": ("stats.moments", 1),
    "states.coherent_calls": ("states.coherent", 0),
    "states.coherent_s": ("states.coherent", 1),
    "fock.to_standard_calls": ("fock.to_standard", 0),
    "fock.to_standard_s": ("fock.to_standard", 1),
    "fock.to_lambda_s": ("fock.to_lambda", 1),
    "operators.ladders_s": ("operators.ladders", 1),
    "operators.residual_s": ("operators.residual", 1),
    "operators.expm_s": ("operators.expm", 1),
    "families.nonlinear_cs_s": ("families.nonlinear_cs", 1),
    **{f"verify.{s}_s": (f"verify.{s}", 1) for s in VERIFY_SUITES},
    "sweeps.self_s": ("sweeps", 2),
    "cli.emit_s": ("cli.emit", 1),
}
COUNTERS = ("fock.gram_max_size", "states.guarded", "sweeps.points")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return {"peak_rss_mb": "MB", "fock.gram_max_size": "rows"}.get(metric, "count")


@dataclass
class Exec:
    """One finished process."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    trace: dict | None = None
    scale: float = 1.0      # REF_NOMINAL_S / the adjacent reference time


BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def spawn(argv: list[str], env: dict) -> Exec:
    """Run argv to completion; wall time from spawn to reaped exit."""
    with tempfile.TemporaryFile(dir=WORKDIR) as out, \
            tempfile.TemporaryFile(dir=WORKDIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=WORKDIR)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Exec(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode,
                    out.read().decode(), err.read().decode())


def run_job(job: Job, env: dict, traced: bool) -> Exec:
    if not traced:
        return spawn([sys.executable, "-c", CLI, *job.args], env)
    fd, path = tempfile.mkstemp(dir=WORKDIR, suffix=".json")
    os.close(fd)
    try:
        ex = spawn([sys.executable, SPANS, path, *job.args], env)
        with open(path, encoding="utf-8") as fh:
            ex.trace = json.load(fh)
    finally:
        os.unlink(path)
    return ex


def tail_latency(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank value at the highest whole percentile that leaves at least
    ten samples above it; the maximum when there are ten or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return xs[rank - 1], pct


# ------------------------------------------------------------------ set-up --

def check_checkout(env: dict) -> None:
    """Refuse to run without lfock sources in this checkout."""
    if not os.path.isfile(os.path.join(SRC, "lfock", "cli.py")):
        raise SystemExit(f"bench: no lfock sources under {SRC}")
    os.makedirs(WORKDIR, exist_ok=True)
    probe = spawn([sys.executable, "-c", "import lfock; print(lfock.__file__)"],
                  env)
    where = os.path.realpath(probe.stdout.strip())
    if probe.code != 0 or not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"bench: lfock does not import from {SRC}: "
                         f"{probe.stdout.strip() or probe.stderr.strip()}")


class Reference:
    """Times the reference task between processes and scales each process by
    the mean of the reference times just before and just after it."""

    def __init__(self, env: dict):
        self.env = env
        self.before = self.time()
        self.raw: list[float] = [self.before]

    def time(self) -> float:
        ex = spawn([sys.executable, "-c", REFERENCE], self.env)
        if ex.code != 0:
            raise SystemExit(f"bench: reference task failed: {ex.stderr}")
        return ex.wall

    def scaled(self, ex: Exec) -> Exec:
        after = self.time()
        self.raw.append(after)
        ex.scale = REF_NOMINAL_S / (0.5 * (self.before + after))
        self.before = after
        return ex


def measure_setup(env: dict, ref: Reference) -> float:
    return statistics.median(
        ex.wall * ex.scale for ex in (
            ref.scaled(spawn([sys.executable, "-c", "import lfock.cli"], env))
            for _ in range(SETUP_SPAWNS)))


def _importtime(stderr: str) -> tuple[float, float]:
    """(lfock, scipy) cumulative import seconds from -X importtime output.

    lfock is every top-level lfock entry; scipy is every scipy entry with no
    scipy ancestor. Entries are printed children-first, so walk them reversed
    with a stack of open ancestors."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    lfock_s = scipy_s = 0.0
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if depth == 0 and (name == "lfock" or name.startswith("lfock.")):
            lfock_s += cumulative
        if name.split(".")[0] == "scipy" and \
                not any(a.split(".")[0] == "scipy" for _, a in stack):
            scipy_s += cumulative
        stack.append((depth, name))
    return lfock_s, scipy_s


def measure_imports(env: dict) -> tuple[float, float]:
    runs = [_importtime(spawn([sys.executable, "-X", "importtime", "-c",
                               "import lfock.cli"], env).stderr)
            for _ in range(IMPORTTIME_SPAWNS)]
    return (statistics.median(r[0] for r in runs),
            statistics.median(r[1] for r in runs))


# ---------------------------------------------------------------- running --

def run_passes(jobs: list[Job], env: dict, seconds: float,
               traced_pattern: tuple[bool, ...],
               ref: Reference) -> list[tuple[bool, list[Exec]]]:
    """Passes over the job list, cycling through traced_pattern, until
    `seconds` have elapsed and the pattern has run at least once.

    An untraced run (pattern (False,)) stops at the first job boundary past
    `seconds` once a pass is whole, so its last pass may be partial; a traced
    run stops only after a whole pattern, so that it has as many traced as
    untraced passes and its counts can be compared pass by pass. Every
    process is scaled by the reference."""
    passes: list[tuple[bool, list[Exec]]] = []
    t0 = time.perf_counter()
    while True:
        traced = traced_pattern[len(passes) % len(traced_pattern)]
        execs: list[Exec] = []
        passes.append((traced, execs))
        for job in jobs:
            ex = run_job(job, env, traced)
            execs.append(ref.scaled(ex))
            if len(traced_pattern) == 1 and len(passes) > 1 \
                    and time.perf_counter() - t0 >= seconds:
                return passes
        elapsed = time.perf_counter() - t0
        if len(passes) % len(traced_pattern) == 0 and elapsed >= seconds \
                or elapsed >= LAST_PASS_START_S:
            return passes


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    guarded: int = 0
    unexpected: int = 0
    max_err: float = 0.0


def check_outputs(jobs: list[Job], passes) -> tuple[Tally, list[str]]:
    """Tally the first (whole) pass against the oracles; a later run of a job
    that prints other bytes or exits another way is unexpected."""
    tally, notes = Tally(), []
    for i, job in enumerate(jobs):
        first = passes[0][1][i]
        out = oracles.check(job, first.code, first.stdout, first.stderr)
        tally.attempted += out.ops
        tally.failed += out.failed
        tally.guarded += out.guarded
        tally.unexpected += out.unexpected
        tally.max_err = max(tally.max_err, out.max_err)
        notes += [f"{job.label}: {n}" for n in out.notes]
        if any((ex.code, ex.stdout) != (first.code, first.stdout)
               for _, execs in passes[1:] for ex in execs[i:i + 1]):
            tally.unexpected += 1
            notes.append(f"{job.label}: output differs between runs")
    return tally, notes


def _by_job(passes) -> list[list[Exec]]:
    """Each job's runs, in job-list order."""
    return [[execs[i] for _, execs in passes if i < len(execs)]
            for i in range(len(passes[0][1]))]


def _wall_s(passes) -> float:
    """Sum over the job list of each job's median reference-scaled wall time."""
    return sum(statistics.median(e.wall * e.scale for e in runs)
               for runs in _by_job(passes))


def end_to_end(passes, setup_s: float, ref: Reference) -> tuple[dict, list[str]]:
    """Reference-scaled times. wall_s and cpu_s sum, over the job list, each
    job's median over its runs; the job latency percentiles pool every run."""
    by_job = _by_job(passes)
    lat = [ex.wall * ex.scale for _, execs in passes for ex in execs]
    tail, pct = tail_latency(lat)
    metrics = {
        "setup_s": setup_s,
        "wall_s": _wall_s(passes),
        "cpu_s": sum(statistics.median(e.cpu * e.scale for e in runs)
                     for runs in by_job),
        "job_p50_s": statistics.median(lat),
        "peak_rss_mb": max(ex.rss_mb for _, execs in passes for ex in execs),
    }
    raw_wall = sum(statistics.median(e.wall for e in runs) for runs in by_job)
    return metrics, [
        f"  {'job_tail_s':<28} {tail!r} s (p{pct} of {len(lat)} jobs)",
        f"  times scaled to a {REF_NOMINAL_S} s reference; the reference took "
        f"a median {statistics.median(ref.raw)!r} s over {len(ref.raw)} "
        f"runs; unscaled wall_s {raw_wall!r} s"]


def per_layer(passes, imports: tuple[float, float]) -> tuple[dict, bool]:
    """Per-layer metrics of the traced passes, and whether their counts
    repeated exactly."""
    traced = [execs for t, execs in passes if t]
    per_pass = []
    for execs in traced:
        spans: dict[str, list] = {}
        counters = dict.fromkeys(COUNTERS, 0)
        for ex in execs:
            for name, (calls, total, self_s) in ex.trace["spans"].items():
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
            for name, value in ex.trace["counters"].items():
                counters[name] = max(counters[name], value) \
                    if name == "fock.gram_max_size" else counters[name] + value
        per_pass.append((spans, counters))
    metrics: dict[str, float] = {}
    for metric, (span, field_) in SPAN_METRICS.items():
        values = [spans.get(span, [0, 0.0, 0.0])[field_] for spans, _ in per_pass]
        metrics[metric] = values[0] if field_ == 0 else statistics.median(values)
    for name in COUNTERS:
        metrics[name] = per_pass[0][1][name]
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = imports
    metrics["trace_overhead_s"] = _wall_s([p for p in passes if p[0]]) \
        - _wall_s([p for p in passes if not p[0]])

    counts = [{k: v[0] for k, v in spans.items()} | counters
              for spans, counters in per_pass]
    return metrics, all(c == counts[0] for c in counts[1:])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env: dict) -> dict:
    jobs = jobs_for(workload, seed)
    if trace:
        imports = measure_imports(env)
        passes = run_passes(jobs, env, seconds, (True, False, False, True),
                            Reference(env))
    else:
        ref = Reference(env)
        setup_s = measure_setup(env, ref)
        passes = run_passes(jobs, env, seconds, (False,), ref)
    tally, notes = check_outputs(jobs, passes)
    runs = sum(len(execs) for _, execs in passes)
    lines = [f"workload {workload} seed {seed}: {len(jobs)} jobs per pass, "
             f"{runs} job runs"]
    repeated, extra = True, []
    if trace:
        metrics, repeated = per_layer(passes, imports)
        if not repeated:
            notes.append("traced counts differ between passes")
    else:
        metrics, extra = end_to_end(passes, setup_s, ref)
    fail_ratio = tally.failed / tally.attempted
    lines += [f"  {name:<28} {value!r} {unit_of(name)}"
              for name, value in metrics.items()]
    lines += extra
    lines += [f"  {'fail_ratio':<28} {fail_ratio!r} ratio ({tally.failed} "
              f"of {tally.attempted} operations in the first pass)",
              f"  {'max_rel_err':<28} {tally.max_err!r} scaled",
              f"  {'guarded':<28} {tally.guarded} cells"]
    lines += [f"  note: {n}" for n in notes[:20]]
    correct = tally.unexpected == 0 and repeated
    return {
        "report": lines,
        "result": {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {n: {"value": v, "unit": unit_of(n)}
                        for n, v in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(BLAS_PIN)     # the oracles' own numpy too
    env = dict(os.environ, PYTHONPATH=SRC)
    check_checkout(env)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        done = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        print("\n".join(done["report"]), flush=True)
        results[name] = done["result"]
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
