"""The benchmark's trace wrapper still finds every lfock name it wraps.

bench/spans.py replaces lfock functions and methods by name (fock.gram,
LambdaExpansion.to_standard, states.radius_min, cli._emit, ...); renaming or
deleting one of them breaks a traced benchmark run, which this test catches.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_bench_spans_traces_a_figure_run(tmp_path):
    # a fresh interpreter that imports lfock from this checkout's src/
    src = os.path.abspath(os.path.join(ROOT, "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "spans.py"), str(out),
         "fig1", "--grid", "0:1:3"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(out.read_text())["spans"]
    assert "sweeps" in spans
    assert "fock.basis_build" in spans
