"""Deformed coherent states: eigenvector check, displaced form, evolution.

Run: python3 demos/02_coherent_dynamics.py
"""

import cmath
import math

import numpy as np

from lfock import LambdaBasis, evolve, lambda_coherent
from lfock.operators import (build_ladders, coherent_overlap, displaced_form,
                             eigen_residual)

lam = 0.5
alpha = 1.0 + 0.5j
basis = LambdaBasis(lam, 256)

state = lambda_coherent(alpha, basis)
print(f"|alpha, lam> at alpha = {alpha}, lam = {lam}")
print(f"  adaptive truncation: {state.truncation} deformed components")
print(f"  Gram norm: {state.expansion.norm():.12f}")

N = state.truncation + 10
vec = state.to_standard(N)
a, _, _ = build_ladders(N)
print(f"  annihilation residual |a psi - alpha psi|: "
      f"{eigen_residual(a, vec, alpha):.3g}")

# same state through the displacement operator, up to the phase e^{i lam Im a}
disp = displaced_form(alpha, basis, N)[:N]
mismatch = 1 - abs(np.vdot(vec, disp)) / (np.linalg.norm(vec) * np.linalg.norm(disp))
print(f"  displaced-vacuum route overlap deficit: {mismatch:.3g}")

print("\noverlap kernel vs the canonical coherent overlap:")
beta = 0.2 - 0.8j
got = coherent_overlap(alpha, beta, basis)
canonical = cmath.exp(np.conj(alpha) * beta - abs(alpha) ** 2 / 2
                      - abs(beta) ** 2 / 2)
want = cmath.exp(1j * lam * (beta.imag - alpha.imag)) * canonical
print(f"  <alpha|beta>_lam      = {got:.12f}")
print(f"  phase * canonical     = {want:.12f}")

print("\nevolution: alpha orbits the origin, the state stays coherent")
for t in (0.0, 0.5, math.pi / 2, math.pi, 10.0):
    moved = evolve(state, t)
    M = moved.truncation + 10
    am, _, _ = build_ladders(M)
    resid = eigen_residual(am, moved.to_standard(M), moved.alpha)
    print(f"  t = {t:6.3f}: alpha(t) = {moved.alpha:+.4f}  "
          f"residual {resid:.2g}  norm {moved.expansion.norm():.12f}")

print("\nmean excitation of the rotated states (|alpha| is conserved, the "
      "deformed-frame mean is not):")
from lfock import number_moments
for t in (0.0, math.pi / 2, math.pi):
    moved = evolve(state, t)
    rep = number_moments(moved)
    print(f"  t = {t:6.3f}: <m> = {rep.mean:.6f}  sum P = {rep.prob_sum:.6f}")
