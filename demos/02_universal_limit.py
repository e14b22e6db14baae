"""Universality of the rescaled interval law.

Drive a geometric initial law through ten epochs with thresholds doubling
each epoch.  Three independent routes meet at epoch ten:

  * Monte Carlo samples of Z = length / threshold,
  * the exact measure-valued pushforward iteration,
  * the universal limit law with transform 1 - exp(-E1(s)).
"""

import math

import numpy as np

from hcplab import (EULER_GAMMA, GeometricLaw, GeometricThresholds, PeriodicRenewal,
                    WindowPolicy, east_schedule, iterate_hcp_measures, replicate, z_cdf)

N_EPOCHS = 10
law = GeometricLaw(q=0.1)

pooled = replicate(PeriodicRenewal(law), east_schedule(a=2.0), N_EPOCHS,
                   n_replicas=4, base_seed=7,
                   window=WindowPolicy(n_intervals=200_000))
z = pooled[-1].z_samples
print(f"epoch {N_EPOCHS}: {z.size} simulated domains")

d = GeometricThresholds(2.0)
laws, _ = iterate_hcp_measures(law.atomic(51_200.0), d, N_EPOCHS)
exact = laws[-1].rescaled(d(N_EPOCHS))

print("\n  x     MC cdf    exact cdf   limit cdf")
for x in (1.25, 1.5, 2.0, 3.0, 5.0):
    print(f"  {x:<4}  {np.mean(z <= x):.4f}    {exact.cdf(x):.4f}      "
          f"{z_cdf(1.0, x):.4f}")

print(f"\nmean Z:   MC {z.mean():.4f}   exact {exact.mean():.4f}   "
      f"limit e^gamma_E = {math.exp(EULER_GAMMA):.4f}")
