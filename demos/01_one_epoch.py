"""One coalescence epoch, two routes.

Start from a circle of one hundred thousand unit-length domains with
activity range [1, 2).  Run the event-driven dynamics to the absorbing
state, then compare the empirical final-length distribution with the exact
pushforward of the interval law, whose atoms have the closed form
(k - 1)/k! at integer k >= 2.
"""

import math

import numpy as np

from hcplab import (DiracLaw, EpochSchedule, GeometricThresholds, PeriodicRenewal,
                    WindowPolicy, dirac, epoch_pushforward, replica_rng, run_hcp)

M = 100_000
# epoch 1 has activity range [d(1), d(2)) = [1, 2); epoch 2 starts from its final state
schedule = EpochSchedule(GeometricThresholds(2.0), left=0.4, right=0.6)

final = run_hcp(PeriodicRenewal(DiracLaw(1.0)), schedule, 2,
                WindowPolicy(n_intervals=M), replica_rng(1))[1]
lengths = final.z_samples * final.d_n
print(f"{M} domains -> {lengths.size} after one epoch ({M - lengths.size} merges)")

oracle = epoch_pushforward(dirac(1.0, l_max=64.0), d_min=1.0, d_max=2.0)
print("\n  k   empirical     exact (k-1)/k!")
for k in range(2, 9):
    emp = np.mean(lengths == k)
    exact = (k - 1) / math.factorial(k)
    print(f"  {k}   {emp:.5f}      {exact:.5f}")
print(f"\nmean final length: {lengths.mean():.5f}  (exact: e = {math.e:.5f})")
