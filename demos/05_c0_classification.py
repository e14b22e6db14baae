"""Classifying initial laws by the single constant the limit remembers.

The limit of  r(s) = -s g'(s) / (1 - g(s))  as s -> 0 is 1 for every
finite-mean interval law, alpha for an alpha-stable-type tail, and need not
exist at all: the estimator reports the tail ratio and flags oscillation.
"""

import math

from hcplab import (ExpGeometricLaw, GeometricLaw, ParetoHalfLaw, c0_estimate,
                    default_c0_grid, dirac)

grid = default_c0_grid()
cases = [
    ("point mass at 1        ", dirac(1.0, 8.0)),
    ("geometric, mean 10     ", GeometricLaw(0.1).atomic(512.0)),
    ("tail x^(-1/2)          ", ParetoHalfLaw()),
    ("exp(geometric), q=0.61 ", ExpGeometricLaw(1 - math.exp(-0.5)).atomic(
        120, l_max=float("inf"))),
]

print("law                       estimate   converged")
for name, law in cases:
    est = c0_estimate(law, grid)
    print(f"{name}  {est.estimate:.4f}     {est.converged}")
print("\nThe last law's tail ratio sweeps a log-periodic band instead of"
      "\nsettling, so no universal limit applies to it.")
