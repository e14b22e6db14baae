"""Inversion of the alternating convolution series and epoch transport.

The law p of a rescaled interval length Z >= 1 determines a nonnegative
measure m on [1, inf) through

    p = sum_{k>=1} (-1)^(k+1) m^{*k} / k!,   that is   delta_0 - p = exp(-m)

``deconvolve_m`` inverts this.  On the dyadic lattice of p's positions, while
its cells fit the memory budget as ``measures.convolve`` asks before a dense
convolution, it solves c = x*p + c * p, with c = x*m, through a ring of sites
(``_lattice_blocks``, the solve of ``reproduce-figb``), its FFT round-off
zeroed block by block below 2e-15 of the largest c.  Elsewhere it sums the
logarithm series, whose terms are all nonnegative, so nothing cancels:

    m = -log(delta_0 - p) = sum_{k>=1} p^{*k} / k

The step function U(x) = sum_{atoms y <= 1+x} y * m({y}) is the primitive of
the measure in the complete-monotone representation of the Laplace transform
of Z.  One running sum reads it (``_read``), and one formula transports it
across epochs by an affine change of variable (``un_transport``).
``c0_estimate`` extracts the small-s limit of -s g'(s)/(1-g(s)), the single
constant the universal limit law remembers from the initial condition.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import budget
from .laws import ExpGeometricLaw
from .measures import AtomicMeasure, MeasureError, _coalesce, _dyadic_spacing, convolve


class TransportRangeError(ValueError):
    """un_transport was asked for a point beyond the computed range."""


# ---------------------------------------------------------------------------
# series inversion
# ---------------------------------------------------------------------------

def deconvolve_m(p: AtomicMeasure, j_max: float) -> AtomicMeasure:
    """Recover m on [1, j_max) from the law p of Z >= 1.

    When the j_max / delta cells of p's dyadic lattice delta pass the budget
    test of a dense convolution (76 bytes each), m = c / x off the ring solve
    on the coarsest lattice g * delta, as ``measures._convolve_dense`` forms
    it.  The FFT's round-off reached 8.7e-16 of the largest c so far at sites
    no sum reaches, past the 1e-16 of the largest mass below which a dense
    convolution zeroes; so each block is zeroed below 2e-15 of that largest
    c, in the ring, where no later block inherits it, and no negative mass
    is kept.  Elsewhere (irrational positions, or a lattice of 2^-20) the
    logarithm series runs.  Either way m is cut to [1, j_max) as
    :meth:`AtomicMeasure.restricted` cuts.
    """
    if p.n_atoms and p.positions[0] < 1 - 1e-12:
        raise MeasureError("law of Z must be supported on [1, inf)")
    seg = p.restricted(1.0, j_max)
    if seg.masses.any():
        delta = _dyadic_spacing(seg.positions)
        try:
            budget.need(j_max / delta, 76, f"the inversion lattice of {j_max / delta:.4g} cells",
                        "analytic.j_max")
        except budget.BudgetError:
            pass
        else:
            spacing = delta * int(np.gcd.reduce((seg.positions / delta).astype(np.int64)))
            _, taps, blocks = _lattice_c(seg, spacing, j_max)
            parts, top = [], 0.0
            for _, part in blocks:
                top = max(top, part.max())
                part[part < 2e-15 * top] = 0.0
                parts.append(part.copy())
            c = np.concatenate(parts)
            i = np.flatnonzero(c)
            i = i[i >= taps[0]]  # below the smallest tap, only round-off
            return AtomicMeasure(i * spacing, c[i] / (i * spacing), j_max).restricted(1.0, j_max)
    return _deconvolve_series(p, j_max)


def _deconvolve_series(p: AtomicMeasure, j_max: float) -> AtomicMeasure:
    """m = sum_{k>=1} p^{*k} / k on [1, j_max), one convolution per power:
    p^{*k} lies on [k, inf), so at most ceil(j_max) - 2 of them."""
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
    acc_pos, acc_mas = [m.positions], [m.masses]
    power, fact, k = m, 1.0, 2
    while k <= j_max and (power := convolve(power, m)).n_atoms:
        fact *= k
        acc_pos.append(power.positions)
        acc_mas.append((1.0 if k % 2 else -1.0) * power.masses / fact)
        k += 1
    pos, mas = _coalesce(np.concatenate(acc_pos), np.concatenate(acc_mas))
    keep = np.abs(mas) > 1e-13
    return AtomicMeasure(pos[keep], np.maximum(mas[keep], 0.0), min(m.l_max, j_max))


# ---------------------------------------------------------------------------
# the lattice solve
# ---------------------------------------------------------------------------

# Sites per block of the lattice solve.  A block costs one slice-add per tap
# and, when some tap lies below it, one FFT pair of length 2 * block.
_LATTICE_BLOCK = 1 << 13


def _ring_sites(n: int, taps: np.ndarray, block: int) -> int:
    """Sites the solve of :func:`_lattice_blocks` holds: the largest tap and
    one block, in whole blocks, or all n sites if fewer."""
    return min(n, -(-(int(taps.max()) + block) // block) * block)


def _lattice_blocks(n: int, taps: np.ndarray, weights: np.ndarray, base_at: np.ndarray,
                    base: np.ndarray, block: int):
    """Solve c[i] = b[i] + sum_j c[i - a_j] * w_j on sites 0 .. n - 1 for the
    taps a_j >= 1 and the base b, zero but at the increasing sites
    ``base_at``, yielding ``(t, c[t:t + block])`` as each block becomes
    final.  The yielded block is a view the next step overwrites, and a
    change made to it is what later blocks read.

    The block [t, t + block) first receives, tap by tap, the terms whose
    source lies below t: targets [max(t, a), min(t + block, t + a)), read
    from final sites.  What remains is c = r + c * p on the block alone, with
    p the taps below ``block``, and its solution is r * K for the resolvent
    K = sum_k p^{*k} on [0, block).  K is this solve applied to delta_0 with
    half the block, and the block is convolved with it by FFT; a block below
    the smallest tap needs no K.  No source lies further back than the
    largest tap, so site i is held at i mod R of a ring of R sites
    (:func:`_ring_sites`), a whole number of blocks.
    """
    near = taps < block
    k_hat = None
    if near.any():
        k = np.concatenate([part.copy() for _, part in _lattice_blocks(
            block, taps[near], weights[near], np.zeros(1, np.int64), np.ones(1), block // 2)])
        k_hat = np.fft.rfft(k, 2 * block)
    ring = _ring_sites(n, taps, block)
    c = np.zeros(ring)
    pairs = list(zip(taps.tolist(), weights.tolist()))
    for t in range(0, n, block):
        end = min(t + block, n)
        part = c[t % ring:t % ring + end - t]
        part[:] = 0.0
        first, last = np.searchsorted(base_at, (t, end))
        part[base_at[first:last] - t] = base[first:last]
        for a, w in pairs:
            lo, hi = max(t, a), min(end, t + a)
            if lo < hi:
                src = (lo - a) % ring
                held = min(hi - lo, ring - src)  # sources before the ring wraps
                part[lo - t:lo - t + held] += w * c[src:src + held]
                if held < hi - lo:
                    part[lo - t + held:hi - t] += w * c[:hi - lo - held]
        if k_hat is not None:
            part[:] = np.fft.irfft(np.fft.rfft(part, 2 * block) * k_hat, 2 * block)[:end - t]
        yield t, part


def _lattice_taps(law: AtomicMeasure, spacing: float, j_max: float
                  ) -> tuple[int, np.ndarray, np.ndarray]:
    """The lattice's n sites and the law on it: the positions rounded to
    sites 1 .. n - 1, masses of one site summed."""
    n = int(math.floor(j_max / spacing)) + 1
    idx = np.rint(law.positions / spacing).astype(np.int64)
    keep = (idx > 0) & (idx < n) & (law.masses != 0)
    idx, mass = idx[keep], law.masses[keep]
    if idx.size == 0:
        raise MeasureError("law has no mass below j_max")
    starts = np.flatnonzero(np.diff(idx, prepend=0))  # positions that round to one site
    return n, idx[starts], np.add.reduceat(mass, starts)


def _lattice_c(law: AtomicMeasure, spacing: float, j_max: float):
    """The lattice's n sites, the law's taps, and the blocks of the solve of
    c = x*p + c * p, c(x) = x * m({x}), for the law p snapped to the lattice."""
    n, taps, weights = _lattice_taps(law, spacing, j_max)
    return n, taps, _lattice_blocks(n, taps, weights, taps, weights * (taps * spacing),
                                    _LATTICE_BLOCK)


# ---------------------------------------------------------------------------
# reading U1, and transport
# ---------------------------------------------------------------------------

def _read(n: int, jump, blocks, right, left) -> tuple[np.ndarray, np.ndarray]:
    """A step function with n increasing jump locations ``jump(i)`` and jump
    sizes arriving as ``(t, sizes[t:t + len])``: its value at each argument
    of ``right``, raised by a relative 1e-15, and its left limit at each of
    ``left``, lowered by as much.  Each block's running sum starts from the
    last block's total, the additions of one cumulative sum over them all."""
    right_v = np.atleast_1d(np.asarray(right, dtype=np.float64)) * (1 + 1e-15) + 1e-300
    left_v = np.atleast_1d(np.asarray(left, dtype=np.float64)) * (1 - 1e-15)
    at = np.array([bisect.bisect_right(range(n), v, key=jump) for v in right_v.tolist()]
                  + [bisect.bisect_left(range(n), v, key=jump) for v in left_v.tolist()],
                  dtype=np.int64) - 1  # the jump each value is read after, -1 before the first
    values = np.zeros(at.size)
    total = 0.0
    for t, part in blocks:
        run = part.copy()
        if t:
            run[0] += total
        np.cumsum(run, out=run)
        hit = (at >= t) & (at < t + run.size)
        values[hit] = run[at[hit] - t]
        total = run[-1]
    return values[:right_v.size], values[right_v.size:]


def u1_reader(m: AtomicMeasure):
    """The primitive U1(x) = sum_{atoms y <= 1+x} y * m({y}) as a reader for
    :func:`un_transport`: U1 jumps by y * m({y}) at x = y - 1, read as one
    block, and an argument past m's truncation, x > l_max - 1, is refused."""
    def read(right, left):
        if (past := right > (m.l_max - 1.0) * (1 + 1e-12)).any():
            arg = float(right[past][0])
            raise TransportRangeError(f"argument {arg:.6g} beyond computed range; deconvolve "
                                      f"with j_max >= {arg + 1:.6g}")
        return _read(m.n_atoms, (m.positions - 1.0).__getitem__,
                     [(0, m.positions * m.masses)] if m.n_atoms else [], right, left)
    return read


def u1_on_lattice(law: AtomicMeasure, spacing: float, j_max: float, right, left
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The reader of U1 for a law snapped to a lattice: U1 at each argument
    of ``right``, and its left limit at each of ``left``, read block by block
    off :func:`deconvolve_m`'s ring solve, which scales to millions of sites
    at 8 bytes per site of the ring.  Positions of p are rounded to the
    lattice; the rounding is the declared discretization of the input law.
    U1 jumps at every site i * spacing - 1.0 by c there, most jumps of size 0.
    """
    n, _, blocks = _lattice_c(law, spacing, j_max)
    return _read(n, lambda i: i * spacing - 1.0, blocks, right, left)


def un_transport(read, d, x) -> np.ndarray:
    """Epoch-n primitive by affine transport of the first-epoch one, for
    each pair of the arrays (or numbers) ``d`` = d_n and ``x``:

        U_n(x) = (1/d_n) * [ U1(d_n*(1+x) - 1) - U1((d_n - 1)-) ],  0 for x < 0,

    where ``read(right, left)`` gives U1 at each argument of ``right`` and its
    left limit at each of ``left`` (:func:`u1_reader`, :func:`u1_on_lattice`).
    """
    d, x = np.broadcast_arrays(np.asarray(d, dtype=np.float64), np.asarray(x, dtype=np.float64))
    u, u_left = read(np.where(x < 0, -1.0, d * (1.0 + x) - 1.0), d - 1.0)
    return np.where(x < 0, 0.0, (u - u_left) / d)


def figb_ratios(qs, horizon: int, x: float, spacing: float, d_of) -> list[list[float]]:
    """u_n(x) / x for n = 1..horizon, one list per q: the law exp_geometric
    with p = 1 - q, transported along the thresholds d_of(n) on the lattice of
    ``spacing``.  Shared by ``reproduce-figb`` and acceptance criterion 7.
    One law's ring is held at a time, and refused past the memory budget
    before it is allocated: it reaches back to the largest atom below j_max,
    e times further with each atom the horizon brings below it."""
    try:
        j_max = d_of(horizon) * (1 + x) + 2
    except OverflowError:  # 2^(horizon - 1) beyond the float range
        j_max = math.inf
    ring = sites = j_max / spacing + 1
    laws = []  # past 2^53 sites, indices are not exact, and the lattice is past any budget
    if sites < 2.0 ** 53:
        n_atoms = int(math.log(j_max)) + 1
        laws = [ExpGeometricLaw(1.0 - float(q)).atomic(n_atoms, l_max=math.inf) for q in qs]
        ring = max((_ring_sites(*_lattice_taps(law, spacing, j_max)[:2], _LATTICE_BLOCK)
                    for law in laws), default=0)
    budget.need(ring, 9, f"the transport lattice of {ring:.4g} sites per law held, of "
                f"{sites:.4g} in all", "figb.horizon or figb.x, or coarsen figb.lattice")
    d = np.array([d_of(n) for n in range(1, horizon + 1)], dtype=np.float64)
    return [(un_transport(partial(u1_on_lattice, law, spacing, j_max), d, x) / x).tolist()
            for law in laws]


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
