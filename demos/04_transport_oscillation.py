"""When does the rescaled interval law converge at all?

The primitive U of the measure behind the interval-law transform moves
across epochs by an affine change of variable, so U_n(x)/x for a fixed x
tracks the whole sequence of laws.  For the exp(geometric) family the
finite-mean member settles at 1 while the infinite-mean members oscillate
log-periodically forever: the sequence of laws has no limit.
"""

from hcplab import figb_ratios

HORIZON, X = 14, 10.0

print("U_n(10)/10 with thresholds 2^(n-1); q is the geometric tail weight")
print("  n      q=0.1     q=0.5     q=0.8")
QS = (0.1, 0.5, 0.8)
# one law's lattice of 1.44 M sites at a time, on the lattice of 1/16
columns = figb_ratios(QS, HORIZON, X, 1.0 / 16.0, lambda n: 2.0 ** (n - 1))
for n in range(1, HORIZON + 1):
    row = "  ".join(f"{column[n - 1]:.4f}" for column in columns)
    print(f"  {n:>2}     {row}")
print("\nq=0.1 has finite mean: the ratio settles at 1."
      "\nq=0.5 and q=0.8 have infinite mean with a log-periodic tail: no limit.")
