"""Compare the guard radius of two lfock source trees, bit for bit.

    python3 tools/radius_corpus.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are `src` directories (each holding `lfock/`).
Each tree runs in a fresh interpreter, with BLAS pinned to one thread as
bench/run.py pins it, and computes `states.radius_min` at every lam of
CORPUS, once at `_SCAN_FACTOR` 1.05 and once at sqrt(1.05), on a
`LambdaBasis(lam, states._SQUEEZED_MAX_N)` with the radius cache emptied
before each factor. Prints every (factor, lam) whose radii differ, with
both values, then a count, then how many of the scans of each tree called
`states._even_gram_block`; exits 1 if any radii differ, 0 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))
from run import BLAS_PIN  # noqa: E402

FACTORS = (1.05, math.sqrt(1.05))


# 241 lam evenly spaced in [-60, 60] and 120 in [0.3, 3] (the default
# figures' range), plus zero and subnormal-scale lam, large |lam|, lam
# where the Gram-free bounds settle every probe, negative lam, and two lam
# where the radii of different phase rays used to differ
CORPUS = tuple(dict.fromkeys(
    np.linspace(-60.0, 60.0, 241).tolist() + np.linspace(0.3, 3.0, 120).tolist()
    + [0.0, 1e-300, -1e-300, 1e-8, 50.0, 100.0, -100.0, 0.4, 0.5, 1.3, 1.5,
       2.0, 0.88, 2.9, 4.0, -1.0, -2.9, -0.3, -4.0,
       1.089041095890411, 2.0753424657534247]))

CHILD = """
import json, sys
from lfock import states
from lfock.fock import LambdaBasis
lams, factors = json.loads(sys.argv[1])
out, builds, block = [], 0, states._even_gram_block


def counted(basis, T):
    global builds
    builds += 1
    return block(basis, T)


states._even_gram_block = counted
for factor in factors:
    states._SCAN_FACTOR = float.fromhex(factor)
    states._GUARD_RADII.clear()
    out.append([states.radius_min(LambdaBasis(float.fromhex(lam),
                                              states._SQUEEZED_MAX_N)).hex()
                for lam in lams])
print(json.dumps([out, builds]))
"""


def radii(src: str) -> tuple[list[list[str]], int]:
    """Per factor, the radius of each lam of CORPUS as float.hex strings,
    and the count of scans that built the even Gram block."""
    arg = json.dumps([[lam.hex() for lam in CORPUS],
                      [factor.hex() for factor in FACTORS]])
    proc = subprocess.run([sys.executable, "-c", CHILD, arg],
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src, **BLAS_PIN))
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/radius_corpus.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 2
    with ThreadPoolExecutor(2) as pool:
        (parent, parent_builds), (change, change_builds) = pool.map(
            radii, [os.path.abspath(src) for src in argv])
    differ = 0
    for factor, old, new in zip(FACTORS, parent, change):
        for lam, r0, r1 in zip(CORPUS, old, new):
            if r0 != r1:
                differ += 1
                print(f"factor {factor!r} lam {lam!r}: radius "
                      f"{float.fromhex(r0)!r} -> {float.fromhex(r1)!r}")
    print(f"{differ} of {len(FACTORS) * len(CORPUS)} scans differ "
          f"({len(CORPUS)} lam, {len(FACTORS)} factors)")
    print(f"even Gram block built in {parent_builds} scans of PARENT_SRC, "
          f"{change_builds} of CHANGE_SRC")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
