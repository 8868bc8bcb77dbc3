"""Record the benchmark baseline: repeated runs over seeds, summarized.

    python3 bench/record.py [--seeds 1-10] [--seconds RUN_SECONDS] \
        [--workloads coherent_scan,squeezed_scan,oneshot] [--out FILE]

For each workload, runs `run.py` once per seed in each of two sets (one run
at a time), then two traced runs of seed 1. The run
length defaults to `run_seconds` of BENCHMARK.json. Prints, and with --out
writes as JSON (the schema of bench/baseline.json):

- environment: CPU, cache, versions, BLAS pin, git commit;
- per workload and set, every end-to-end metric's median, quartiles
  (statistics.quantiles, n=4) and quartile spread (q3 - q1) / median, and
  every timed run with its report-only figures;
- quality: per seed the operations attempted and failed in the first pass,
  the fail ratio, the worst scaled error and the guarded cells, which must
  repeat exactly between sets;
- per_layer: each per-layer metric's median over the traced runs, whose
  counts must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# figures printed in the report but not in the result line
REPORT_ONLY = ("job_tail_s", "fail_ratio", "max_rel_err", "guarded")
QUALITY = ("attempted", "failed", "fail_ratio", "max_rel_err", "guarded")
CONFIRM_SEEDS = "101-110"   # kept unused for confirming a later claim
SETS = ("set_a", "set_b")   # two sets, as a later PR's runs are compared
TRACE_SEED = 1
TRACE_RUNS = 2              # two, so that their counts can be compared


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), None)
    cache = "/sys/devices/system/cpu/cpu0/cache"
    levels = sorted(d for d in os.listdir(cache) if d.startswith("index")) \
        if os.path.isdir(cache) else []
    llc = (_read(f"{cache}/{levels[-1]}/size") or "").strip() if levels else None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1 in every job",
        "git_sha": sha,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py run as a flat record: seed, correct, attempted, failed,
    every metric of the result line and the report-only figures."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = {"seed": seed, "correct": result["correct"],
              "attempted": result["attempted"], "failed": result["failed"]}
    record.update((k, v["value"]) for k, v in result["metrics"].items())
    for line in lines[:-1]:         # "  name  value unit ..."
        fields = line.split()
        if fields and fields[0] in REPORT_ONLY:
            record[fields[0]] = (int if fields[0] == "guarded" else float)(
                fields[1])
    print(f"{workload} seed {seed} trace {trace}: correct={record['correct']} "
          f"failed={record['failed']}/{record['attempted']} " + " ".join(
              f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
              if not trace or not k.endswith("_s")), flush=True)
    return record


def summarize(runs: list[dict], names: list[str]) -> dict:
    out = {}
    for name in names:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "unit": unit_of(name)}
    return out


def quality(sets: dict[str, list[dict]]) -> dict:
    """First-pass quality per seed, and whether every set agrees on it."""
    first = next(iter(sets.values()))
    by_seed = {str(r["seed"]): {k: r[k] for k in QUALITY} for r in first}
    repeat = all({str(r["seed"]): {k: r[k] for k in QUALITY} for r in runs}
                 == by_seed for runs in sets.values())
    attempted = sum(q["attempted"] for q in by_seed.values())
    failed = sum(q["failed"] for q in by_seed.values())
    return {
        "correct": all(r["correct"] for runs in sets.values() for r in runs),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "max_rel_err": max(q["max_rel_err"] for q in by_seed.values()),
        "repeats_across_sets": repeat,
        "by_seed": by_seed,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    e2e = [m["name"] for m in spec["end_to_end"]]
    record = {
        "about": (
            "Baseline of the lfock benchmark, written by bench/record.py at "
            "the lfock commit in environment.git_sha. end_to_end: per set, "
            "one untraced run per seed, each metric's median, quartiles and "
            "quartile spread. timed_runs: those runs. quality: the first-pass "
            "operations of each seed, which every set must repeat. per_layer: "
            "medians over the traced runs of trace_seed. confirm_seeds were "
            "not used while tuning and are kept for confirming a later claim."),
        "environment": environment(), "run_seconds": args.seconds,
        "seeds": args.seeds, "trace_seed": TRACE_SEED,
        "confirm_seeds": CONFIRM_SEEDS, "workloads": {}}
    for workload in args.workloads.split(","):
        sets = {name: [run_once(workload, s, args.seconds, 0)
                       for s in args.seeds] for name in SETS}
        traced = [run_once(workload, TRACE_SEED, args.seconds, 1)
                  for _ in range(TRACE_RUNS)]
        entry = {
            "end_to_end": {name: summarize(runs, e2e)
                           for name, runs in sets.items()},
            "timed_runs": sets,
            "quality": quality(sets),
        }
        for name, summary in entry["end_to_end"].items():
            for metric, s in summary.items():
                print(f"  {name} {metric:<14} median {s['median']:.6g} "
                      f"{s['unit']}  spread {s['spread']:.3f}")
        layer = [m["name"] for m in spec["per_layer"]]
        counts = [{k: r[k] for k in layer if unit_of(k) != "s"}
                  for r in traced]
        entry["traced_counts_repeat"] = all(r["correct"] for r in traced) \
            and all(c == counts[0] for c in counts)
        entry["per_layer"] = {k: statistics.median(r[k] for r in traced)
                              for k in layer}
        entry["traced_runs"] = traced
        print(f"  traced counts repeat exactly: "
              f"{entry['traced_counts_repeat']}")
        print(f"  quality: {json.dumps(entry['quality'])[:300]}")
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
