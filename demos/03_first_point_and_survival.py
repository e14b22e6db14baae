"""First-point motion and survival.

With left incorporation only (rate ratio gamma = 0) the leftmost point of a
left-bounded configuration survives each epoch with probability
exp(-active mass).  Its rescaled position converges to the law with
transform exp(-Ein(s)).  Both statements are checked against simulation.
"""

import numpy as np

from hcplab import (DiracLaw, GeometricThresholds, LeftBounded, WindowPolicy, dirac,
                    east_schedule, first_point_limit_transform, iterate_hcp_measures,
                    replicate, survival_probability_exact)

N_REPLICAS = 20_000
pooled = replicate(LeftBounded(DiracLaw(1.0)), east_schedule(2.0), 6,
                   n_replicas=N_REPLICAS, base_seed=3,
                   window=WindowPolicy(n_intervals=512), z_per_epoch=0)

_, active_mass = iterate_hcp_measures(dirac(1.0, 4096.0), GeometricThresholds(2.0), 6)
print("survival of the first point (start of epoch n):")
print("  n   simulated   exact")
for n in range(2, 7):
    mc = pooled[n - 1].first_point_survived.mean()
    exact = survival_probability_exact(active_mass, n - 1, gamma=0.0)
    print(f"  {n}   {mc:.4f}      {exact:.4f}")

y = pooled[-1].y
print("\nrescaled first point at epoch 6, Laplace transform:")
print("  s     simulated   limit")
for s in (0.5, 1.0, 2.0):
    print(f"  {s:<4}  {np.exp(-s * y).mean():.4f}      "
          f"{first_point_limit_transform(1.0, 0.0, s):.4f}")
