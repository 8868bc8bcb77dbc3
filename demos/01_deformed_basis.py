"""Tour of the deformed number basis: expansions, overlaps, ladder action.

Run: python3 demos/01_deformed_basis.py
"""

import numpy as np

from lfock import (LambdaBasis, gram, ladder_down, ladder_up, lambda_ket,
                   overlap_analytic)
from lfock.operators import apply_t_operator

np.set_printoptions(precision=6, suppress=True, linewidth=100)

lam = 1.0
basis = LambdaBasis(lam, 64)

print(f"deformed basis at lam = {lam}")
print("each |n>_lam is a finite superposition of |0>..|n>:\n")
for n in range(4):
    v = lambda_ket(n, basis, 5)
    print(f"  |{n}>_lam = {v}   (norm {np.linalg.norm(v):.12f})")

# the n = 1 state is exactly (|0> + |1>)/sqrt(2) at lam = 1
print("\n|1>_lam components:", lambda_ket(1, basis, 2),
      " vs 1/sqrt(2) =", 1 / np.sqrt(2))

print("\nthe basis is normalized but not orthogonal; Gram block (5x5):")
print(gram(basis, 5))

print("\nanalytic overlap vs expansion dot product, a few pairs:")
for m, n in ((0, 1), (2, 5), (7, 11)):
    vm = lambda_ket(m, basis, 12)
    vn = lambda_ket(n, basis, 12)
    print(f"  <{m}|{n}>_lam  analytic {overlap_analytic(m, n, basis):+.12f}"
          f"   dot {float(vm @ vn):+.12f}")

# overlaps shrink as lam grows: the basis straightens out toward orthogonal
print("\n<0|1>_lam across deformations:")
for g in (0.1, 0.5, 1.0, 2.0, 3.0):
    b = LambdaBasis(g, 4)
    print(f"  lam = {g:3}: {overlap_analytic(0, 1, b):.6f}")

print("\nshift-operator route (exp(lam a) on a bare number state) agrees:")
for n in (3, 9):
    d = np.max(np.abs(lambda_ket(n, basis, 16) - apply_t_operator(n, basis, 16)))
    print(f"  n = {n}: max |difference| = {d:.3g}")

print("\nladder action keeps the index structure of the flat basis:")
for n in (1, 4):
    c_dn, dn = ladder_down(n, basis)
    c_up, up = ladder_up(n, basis)
    print(f"  a |{n}>_lam = {c_dn:.6f} |{dn}>_lam    "
          f"(a_dag + lam) |{n}>_lam = {c_up:.6f} |{up}>_lam")
print("\n(a_dag + lam) a acts like a number operator: eigenvalue n, checked "
      "against the dense matrices in the test suite)")
