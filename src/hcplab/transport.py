"""Inversion of the alternating convolution series and epoch transport.

The law p of a rescaled interval length Z >= 1 determines a nonnegative
measure m on [1, inf) through

    p = sum_{k>=1} (-1)^(k+1) m^{*k} / k!,   that is   delta_0 - p = exp(-m)

``deconvolve_m`` inverts this with the logarithm series

    m = -log(delta_0 - p) = sum_{k>=1} p^{*k} / k

whose terms are all nonnegative, so nothing cancels.  The step function
U(x) = sum_{atoms y <= 1+x} y * m({y}) is the primitive of the measure in the
complete-monotone representation of the Laplace transform of Z, and it is
transported across epochs by an affine change of variable (``un_transport``).
``c0_estimate`` extracts the small-s limit of -s g'(s)/(1-g(s)), the single
constant the universal limit law remembers from the initial condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import ExpGeometricLaw
from .measures import AtomicMeasure, MeasureError, _coalesce, convolve


class TransportRangeError(ValueError):
    """un_transport was asked for a point beyond the computed range."""


# ---------------------------------------------------------------------------
# series deconvolution
# ---------------------------------------------------------------------------

def deconvolve_m(p: AtomicMeasure, j_max: float) -> AtomicMeasure:
    """Recover m on [1, j_max) from the law p of Z >= 1.

    Sums the logarithm series m = sum_{k>=1} p^{*k} / k on [1, j_max) with
    one running convolution power.  p^{*k} lies on [k, inf), so the sum is
    finite: it stops at k >= j_max or at the first power with no atoms below
    j_max, after at most ceil(j_max) - 2 convolutions.  Every term is
    nonnegative, so the recovered masses carry no cancellation error.
    """
    if p.n_atoms and p.positions[0] < 1 - 1e-12:
        raise MeasureError("law of Z must be supported on [1, inf)")
    seg = p.restricted(1.0, j_max)
    base = AtomicMeasure(seg.positions, seg.masses, j_max)
    pos_parts = [base.positions]
    mas_parts = [base.masses]
    power = base
    k = 2
    while k < j_max and power.n_atoms:
        power = convolve(power, base).restricted(1.0, j_max)
        pos_parts.append(power.positions)
        mas_parts.append(power.masses / k)
        k += 1
    pos, mas = _coalesce(np.concatenate(pos_parts), np.concatenate(mas_parts))
    keep = mas > 0.0
    return AtomicMeasure(pos[keep], mas[keep], j_max)


def reassemble_z_law(m: AtomicMeasure, j_max: float) -> AtomicMeasure:
    """Round-trip oracle: evaluate sum_{k>=1} (-1)^(k+1) m^{*k}/k! below j_max."""
    acc_pos = [m.positions]
    acc_mas = [m.masses]
    power = m
    fact = 1.0
    k = 1
    while True:
        k += 1
        if k > j_max:
            break
        power = convolve(power, m)
        if power.n_atoms == 0:
            break
        fact *= k
        sign = 1.0 if k % 2 == 1 else -1.0
        acc_pos.append(power.positions)
        acc_mas.append(sign * power.masses / fact)
    pos, mas = _coalesce(np.concatenate(acc_pos), np.concatenate(acc_mas))
    keep = np.abs(mas) > 1e-13
    return AtomicMeasure(pos[keep], np.maximum(mas[keep], 0.0),
                         min(m.l_max, j_max))


# ---------------------------------------------------------------------------
# step functions and transport
# ---------------------------------------------------------------------------

class _Steps:
    """Value lookup of a right-continuous nondecreasing step function, zero
    left of the support: ``cumulative[k - 1]`` after k jumps.  Subclasses say
    how many jumps lie at or below (``_count(v, "right")``) or strictly below
    (``_count(v, "left")``) each argument."""

    def _lookup(self, x, side: str) -> np.ndarray | float:
        x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if side == "right":
            idx = self._count(x_arr * (1 + 1e-15) + 1e-300, side)
        else:
            idx = self._count(x_arr * (1 - 1e-15), side)
        vals = np.zeros(idx.shape)
        hit = idx > 0
        vals[hit] = self.cumulative[idx[hit] - 1]
        return vals if np.ndim(x) else float(vals[0])

    def __call__(self, x) -> np.ndarray | float:
        return self._lookup(x, "right")

    def left_limit(self, x) -> np.ndarray | float:
        return self._lookup(x, "left")


@dataclass(frozen=True)
class StepFunction(_Steps):
    """Step function with its jump locations listed."""

    jump_at: np.ndarray     # strictly increasing jump locations (a jump may be 0)
    cumulative: np.ndarray  # value at and right of each jump
    domain_max: float       # arguments above this are outside the computed range

    def _count(self, v: np.ndarray, side: str) -> np.ndarray:
        return np.searchsorted(self.jump_at, v, side=side)


@dataclass(frozen=True)
class LatticeStepFunction(_Steps):
    """Step function jumping at every lattice site i * spacing - 1.0,
    i = 0 .. len(cumulative) - 1, as the float grid
    ``np.arange(n) * spacing - 1.0`` rounds them; it equals
    ``StepFunction(that grid, cumulative, domain_max)`` without storing the
    grid."""

    spacing: float
    cumulative: np.ndarray
    domain_max: float

    def _site(self, i: np.ndarray) -> np.ndarray:
        return i.astype(np.float64) * self.spacing - 1.0

    def _count(self, v: np.ndarray, side: str) -> np.ndarray:
        # Sites are nondecreasing in i, so the counted ones are a prefix.  Its
        # last index k starts from the floor estimate, then steps down while
        # site k lies beyond v and up while site k + 1 does not; like
        # searchsorted, a NaN counts every site.
        n = self.cumulative.size
        counted, beyond = ((np.less_equal, np.greater) if side == "right"
                           else (np.less, np.greater_equal))
        k = np.fmax(np.fmin(np.floor((v + 1.0) / self.spacing), n - 1), -1).astype(np.int64)
        while (down := (k >= 0) & beyond(self._site(k), v)).any():
            k[down] -= 1
        while (up := (k + 1 < n) & counted(self._site(k + 1), v)).any():
            k[up] += 1
        return k + 1


def u1_from_m(m: AtomicMeasure) -> StepFunction:
    """Primitive U(x) = sum_{atoms y <= 1+x} y * m({y}), a step function
    jumping by y*m({y}) at x = y - 1."""
    jumps = m.positions - 1.0
    sizes = m.positions * m.masses
    return StepFunction(jumps, np.cumsum(sizes), float(m.l_max - 1.0))


def un_transport(u1: StepFunction | LatticeStepFunction, d_n: float, x: float) -> float:
    """Epoch-n primitive by affine transport of the first-epoch one:

        U_n(x) = (1/d_n) * [ U1(d_n*(1+x) - 1) - U1((d_n - 1)-) ]
    """
    if d_n < 1:
        raise ValueError("d_n must be >= 1")
    if x < 0:
        return 0.0
    arg = d_n * (1.0 + x) - 1.0
    if arg > u1.domain_max * (1 + 1e-12):
        raise TransportRangeError(
            f"argument {arg:.6g} beyond computed range; deconvolve with "
            f"j_max >= {arg + 1:.6g}")
    return (u1(arg) - u1.left_limit(d_n - 1.0)) / d_n


# ---------------------------------------------------------------------------
# large-scale lattice route
# ---------------------------------------------------------------------------

# Sites per block of the lattice solve.  A block costs one slice-add per tap
# and, when some tap lies below it, one FFT pair of length 2 * block.
_LATTICE_BLOCK = 1 << 13


def _lattice_solve(c: np.ndarray, taps: np.ndarray, weights: np.ndarray, block: int) -> None:
    """Solve c[i] = base[i] + sum_j c[i - a_j] * w_j for the taps a_j >= 1 in
    place: the 1-D ``c`` holds the base on entry and the solution on return.

    The block [t, t + block) first receives, tap by tap, the terms whose
    source lies below t: targets [max(t, a), min(t + block, t + a)), read
    from final sites.  What remains is c = r + c * p on the block alone, with
    p the taps below ``block``, and its solution is r * K for the resolvent
    K = sum_k p^{*k} on [0, block).  K is this routine applied to delta_0 with
    half the block, and the block is convolved with it by FFT; a block below
    the smallest tap needs no K.
    """
    near = taps < block
    k_hat = None
    if near.any():
        k = np.zeros(block)
        k[0] = 1.0
        _lattice_solve(k, taps[near], weights[near], block // 2)
        k_hat = np.fft.rfft(k, 2 * block)
    pairs = list(zip(taps.tolist(), weights.tolist()))
    for t in range(0, c.size, block):
        end = min(t + block, c.size)
        for a, w in pairs:
            lo, hi = max(t, a), min(end, t + a)
            if lo < hi:
                c[lo:hi] += w * c[lo - a:hi - a]
        if k_hat is not None:
            c[t:end] = np.fft.irfft(np.fft.rfft(c[t:end], 2 * block) * k_hat,
                                    2 * block)[:end - t]


def u1_on_lattice(law: AtomicMeasure, spacing: float, j_max: float) -> LatticeStepFunction:
    """Large-scale route to U1 for a law snapped to a lattice.

    Uses the derivative form of the series inversion: with c(x) = x*m({x}),

        c = x*p + c * p   (convolution, lower positions first)

    which recovers the same m as :func:`deconvolve_m` in one solve and scales
    to lattices with millions of sites.  Positions of p are rounded to the
    lattice; the rounding is the declared discretization of the input law.
    The result holds 8 bytes per site and nothing else: every site is a jump
    of a :class:`LatticeStepFunction`, most of size 0.
    """
    n = int(math.floor(j_max / spacing)) + 1
    idx = np.rint(law.positions / spacing).astype(np.int64)
    keep = (idx > 0) & (idx < n) & (law.masses != 0)
    idx, mass = idx[keep], law.masses[keep]
    if idx.size == 0:
        raise MeasureError("law has no mass below j_max")
    starts = np.flatnonzero(np.diff(idx, prepend=0))  # positions that round to one site
    taps, weights = idx[starts], np.add.reduceat(mass, starts)
    c = np.zeros(n)
    c[taps] = weights * (taps * spacing)  # the base x * p
    _lattice_solve(c, taps, weights, _LATTICE_BLOCK)
    np.cumsum(c, out=c)
    return LatticeStepFunction(spacing, c, float(j_max - 1.0))


# Lattice sites of one law (1 GiB at 8 bytes a site).  The README config
# uses 1.44 M; each step of figb.horizon doubles the count, so an oversized
# request fails here with the knobs named instead of in the allocator.
_FIGB_MAX_SITES = 1 << 27


def figb_ratios(qs, horizon: int, x: float, spacing: float, d_of) -> list[list[float]]:
    """u_n(x) / x for n = 1..horizon, one list per q: the law exp_geometric
    with p = 1 - q, transported along the thresholds d_of(n) on the lattice of
    ``spacing``.  Shared by ``reproduce-figb`` and acceptance criterion 7.
    One law's lattice is held at a time."""
    try:
        j_max = d_of(horizon) * (1 + x) + 2
    except OverflowError:  # 2^(horizon - 1) beyond the float range
        j_max = math.inf
    if j_max / spacing >= _FIGB_MAX_SITES:
        raise MeasureError(
            f"the transport lattice needs {j_max / spacing + 1:.3g} sites per law, above "
            f"the budget of {_FIGB_MAX_SITES}; lower figb.horizon or figb.x, or coarsen "
            f"figb.lattice")
    n_atoms = max(1, int(math.log(j_max)) + 1)
    ratios = []
    for q in qs:
        u1 = u1_on_lattice(ExpGeometricLaw(1.0 - float(q)).atomic(n_atoms, l_max=float("inf")),
                           spacing, j_max)
        ratios.append([un_transport(u1, d_of(n), x) / x for n in range(1, horizon + 1)])
        del u1  # before the next law's lattice is allocated
    return ratios


# ---------------------------------------------------------------------------
# c0 estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C0Estimate:
    estimate: float
    converged: bool


# Grid points per decade of s in the default c0 grid, and the largest
# oscillation of the tail ratio over the grid's last decade that counts as
# converged.
C0_PER_DECADE = 20
C0_OSC_TOL = 1e-4


def default_c0_grid(s_max: float = 1e-2, s_min: float = 1e-9) -> np.ndarray:
    n = int(round(C0_PER_DECADE * math.log10(s_max / s_min))) + 1
    return np.geomspace(s_max, s_min, n)


def c0_estimate(g, s_grid) -> C0Estimate:
    """Tail limit of r(s) = -s g'(s) / (1 - g(s)) along a grid decreasing to 0.

    ``g`` may be an AtomicMeasure (transform and its derivative evaluated by
    exact summation, never finite differences) or any object exposing
    ``transform`` / ``transform_derivative``.

    The converged flag is false when the oscillation (max - min) of r over the
    last decade of the grid exceeds ``C0_OSC_TOL``: a periodic-in-log tail ratio
    never settles and sweeps its amplitude within any decade.  When converged,
    the estimate extrapolates the last two ratios linearly to s = 0; otherwise
    it reports the center of the oscillation window.
    """
    s = np.asarray(s_grid, dtype=float)
    if np.any(s <= 0):
        raise ValueError("s grid must be positive (the limit is one-sided)")
    s = np.sort(s)[::-1]
    if hasattr(g, "one_minus_transform"):
        one_minus = np.asarray(g.one_minus_transform(s), dtype=float)
    else:
        one_minus = 1.0 - np.asarray(g.transform(s), dtype=float)
    gprime = np.asarray(g.transform_derivative(s), dtype=float)
    ratio = -s * gprime / one_minus
    window = ratio[s <= s[-1] * 10.0 * (1 + 1e-12)]
    if window.size < 2:
        window = ratio[-2:]
    converged = bool(window.max() - window.min() <= C0_OSC_TOL)
    if converged and s.size >= 2:
        s1, s2 = s[-2], s[-1]
        r1, r2 = ratio[-2], ratio[-1]
        estimate = r2 - (r1 - r2) * s2 / (s1 - s2)
    else:
        estimate = float((window.max() + window.min()) / 2.0)
    estimate = float(min(1.0, max(0.0, estimate)))
    return C0Estimate(estimate, converged)
