"""When does the rescaled interval law converge at all?

The primitive U of the measure behind the interval-law transform moves
across epochs by an affine change of variable, so U_n(x)/x for a fixed x
tracks the whole sequence of laws.  For the exp(geometric) family the
finite-mean member settles at 1 while the infinite-mean members oscillate
log-periodically forever: the sequence of laws has no limit.
"""

from hcplab import ExpGeometricLaw, u1_on_lattice, un_transport

HORIZON, X = 14, 10.0
j_max = 2.0 ** (HORIZON - 1) * (1 + X) + 2

print("U_n(10)/10 with thresholds 2^(n-1); q is the geometric tail weight")
print("  n      q=0.1     q=0.5     q=0.8")
QS = (0.1, 0.5, 0.8)
columns = {}
for q in QS:  # one law's lattice (1.44 M sites) at a time
    law = ExpGeometricLaw(p=1 - q).atomic(n_atoms=14, l_max=float("inf"))
    u1 = u1_on_lattice(law, spacing=1.0 / 16.0, j_max=j_max)
    columns[q] = [un_transport(u1, 2.0 ** (n - 1), X) / X for n in range(1, HORIZON + 1)]
for n in range(1, HORIZON + 1):
    row = "  ".join(f"{columns[q][n - 1]:.4f}" for q in QS)
    print(f"  {n:>2}     {row}")
print("\nq=0.1 has finite mean: the ratio settles at 1."
      "\nq=0.5 and q=0.8 have infinite mean with a log-periodic tail: no limit.")
