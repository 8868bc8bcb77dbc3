"""Squeezed states on the deformed basis: radius guard, variances, Q signs.

Run: python3 demos/04_squeezing.py
"""

import numpy as np

from lfock import (DomainError, LambdaBasis, lambda_squeezed, number_moments,
                   quadrature_variances, radius_min, squeezed_vacuum)
from lfock.operators import squeezed_norm_constant

print("normalization series radius by the convergence scan:")
for lam in (0.0, 0.5, 1.0, 2.0, 3.0):
    r = radius_min(LambdaBasis(lam, 1600))
    print(f"  lam = {lam:3}: R = {r:.4f}")
print("(R = 1 in the flat case; deformation shrinks the usable xi disk)")

lam, xi = 1.0, 0.3
basis = LambdaBasis(lam, 1604)
state = lambda_squeezed(xi, basis)
print(f"\n|xi, lam> at xi = {xi}, lam = {lam}: "
      f"{state.truncation} components, even indices only")
print(f"  norm constant, closed form:     {state.norm_constant:.12f}")
print(f"  norm constant via triple sum:  {squeezed_norm_constant(xi, basis):.12f}")

print("\nquadrature variances vs xi (vacuum reference is 1/2):")
print("  xi     var_x     var_p     product")
for x in (0.05, 0.2, 0.4, 0.6, 0.8):
    q = quadrature_variances(lambda_squeezed(x, basis))
    print(f"  {x:4.2f}  {q.var_x:8.4f}  {q.var_p:8.4f}  {q.product:9.5f}")
print("the p quadrature is squeezed throughout; x pays for it")

flat = quadrature_variances(squeezed_vacuum(0.4))
print(f"\nflat-basis squeezed vacuum at xi = 0.4 for comparison: "
      f"var_x = {flat.var_x:.4f}, var_p = {flat.var_p:.4f}, "
      f"product = {flat.product:.5f}")

print("\nMandel Q of the same family in the two frames:")
print("  xi     Q (deformed frame)   Q (standard basis)")
for x in (0.1, 0.3, 0.5):
    st = lambda_squeezed(x, basis)
    q_frame = number_moments(st).mandel_q
    q_std = number_moments(st.to_standard(st.truncation + 40)).mandel_q
    print(f"  {x:4.2f}   {q_frame:16.4f}   {q_std:18.4f}")
print("sub-Poissonian in its own frame, super-Poissonian in the flat one")

print("\nthe guard refuses xi outside 95% of the scanned radius:")
try:
    lambda_squeezed(0.93, basis)
except DomainError as exc:
    print(f"  DomainError: {exc}")
