"""Atomic measures with truncation accounting, and epoch-level interval-law analytics.

An :class:`AtomicMeasure` is a finite nonnegative measure stored as sorted
(position, mass) atoms together with a truncation bound ``l_max`` and a
``deficit``: mass known to lie beyond ``l_max``.  All analytic operations
(convolution, the one-epoch pushforward, the multi-epoch iteration, survival
probabilities) are exact for the stored atoms; truncated mass is carried in
the deficit so that totals are conserved.  Each sized step is checked against
the memory budget (``budget``) before it allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import budget

# Atom coalescing tolerance (relative on positions) and the clamp below which
# a negative mass, FFT round-off in a convolution, is treated as zero.
POSITION_RTOL = 1e-12
MASS_ATOL = 1e-12

_FFT_THRESHOLD = 4_000_000  # switch np.convolve -> _fft_convolve above this cost


class MeasureError(ValueError):
    """Invalid measure or measure operation."""


def _at(x):
    """The least position that counts as at ``x``: within a relative
    POSITION_RTOL below it, however small ``x`` is."""
    return x - POSITION_RTOL * x


def _coalesce(positions: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort atoms and merge positions that agree within POSITION_RTOL."""
    if positions.size == 0:
        return positions, masses
    order = np.argsort(positions, kind="stable")
    pos = positions[order]
    mas = masses[order]
    new_group = pos[:-1] < _at(pos[1:])
    starts = np.flatnonzero(np.concatenate(([True], new_group)))
    return pos[starts], np.add.reduceat(mas, starts)


@dataclass(frozen=True)
class AtomicMeasure:
    """Sorted-atom measure on (0, inf) with truncation bookkeeping.

    positions : strictly increasing, positive
    masses    : nonnegative, aligned with positions
    l_max     : truncation bound; all positions are <= l_max
    deficit   : mass known to lie beyond l_max
    """

    positions: np.ndarray
    masses: np.ndarray
    l_max: float
    deficit: float = 0.0

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=np.float64))
        mas = np.atleast_1d(np.asarray(self.masses, dtype=np.float64))
        if pos.shape != mas.shape:
            raise MeasureError("positions and masses must have equal length")
        if pos.size and np.any(pos <= 0):
            raise MeasureError("atom positions must be positive")
        if pos.size and np.any(np.diff(pos) <= 0):
            pos, mas = _coalesce(pos, mas)
        if mas.size and np.any(mas < -MASS_ATOL):
            worst = pos[int(np.argmin(mas))]
            raise MeasureError(f"negative atom mass at position {float(worst)!r}")
        mas = np.maximum(mas, 0.0)
        if self.deficit < -MASS_ATOL:
            raise MeasureError("deficit must be nonnegative")
        if pos.size and pos[-1] > self.l_max * (1 + POSITION_RTOL):
            raise MeasureError(f"atom at {pos[-1]} beyond l_max={self.l_max}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mas)
        object.__setattr__(self, "deficit", max(0.0, float(self.deficit)))

    # -- basic queries ------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return int(self.positions.size)

    @property
    def finite_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def total_mass(self) -> float:
        """Finite mass plus deficit."""
        return self.finite_mass + self.deficit

    def mass_on(self, lo: float, hi: float) -> float:
        """Mass of atoms with position in [lo, hi)."""
        i, j = np.searchsorted(self.positions, (_at(lo), _at(hi)))
        return float(self.masses[i:j].sum())

    def restricted(self, lo: float, hi: float) -> "AtomicMeasure":
        """Restriction to [lo, hi); deficit is dropped (it lies beyond l_max)."""
        i, j = np.searchsorted(self.positions, (_at(lo), _at(hi)))
        return AtomicMeasure(self.positions[i:j], self.masses[i:j], self.l_max, 0.0)

    def mean(self) -> float:
        if self.deficit > MASS_ATOL:
            return math.inf
        return float(self.positions @ self.masses)

    def rescaled(self, unit: float) -> "AtomicMeasure":
        """The measure in units of ``unit``: the pushforward under x -> x / unit."""
        if unit <= 0:
            raise MeasureError("rescale unit must be positive")
        return AtomicMeasure(self.positions / unit, self.masses,
                             self.l_max / unit, self.deficit)

    def normalized(self) -> "AtomicMeasure":
        t = self.total_mass
        if t <= 0:
            raise MeasureError("cannot normalize a null measure")
        return AtomicMeasure(self.positions, self.masses / t, self.l_max, self.deficit / t)

    # -- transforms ---------------------------------------------------------

    def _grid_dot(self, s, fn, weights) -> np.ndarray:
        """sum_i weights_i fn(-s x_i) for each s, one s row at a time, built
        and transformed in place (-s * x is exactly -(s * x)): every row is
        the same dot product, whatever the budget."""
        s = -np.atleast_1d(np.asarray(s, dtype=np.float64))
        n = max(1, self.n_atoms)  # 9 bytes per atom for the row, and as many for the weights
        budget.need(2 * n, 9, f"a 1 x {n} block of the transform grid (s by atoms) with its "
                    "weights", "analytic.l_max, or raise analytic.c0_s_min")
        row, out = np.empty(self.n_atoms), np.empty(s.size)
        for i, si in enumerate(s.tolist()):
            out[i] = fn(np.multiply(si, self.positions, out=row), out=row) @ weights
        return out

    def transform(self, s) -> np.ndarray | float:
        """Laplace transform sum_i w_i exp(-s x_i) (deficit excluded)."""
        out = self._grid_dot(s, np.exp, self.masses)
        return out if np.ndim(s) else float(out[0])

    def transform_derivative(self, s) -> np.ndarray | float:
        """d/ds of the transform: the position-weighted transform, exact."""
        out = -self._grid_dot(s, np.exp, self.positions * self.masses)
        return out if np.ndim(s) else float(out[0])

    def one_minus_transform(self, s) -> np.ndarray | float:
        """1*total - transform, evaluated stably via expm1; includes deficit."""
        out = -self._grid_dot(s, np.expm1, self.masses) + self.deficit
        return out if np.ndim(s) else float(out[0])

    def cdf(self, x) -> np.ndarray | float:
        x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        cum = np.concatenate(([0.0], np.cumsum(self.masses)))
        idx = np.searchsorted(self.positions, x_arr * (1 + POSITION_RTOL), side="right")
        out = cum[idx]
        return out if np.ndim(x) else float(out[0])


def dirac(position: float, l_max: float, mass: float = 1.0) -> AtomicMeasure:
    """Point mass at ``position``."""
    return AtomicMeasure(np.array([position]), np.array([mass]), l_max)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real vectors by numpy's FFT, the
    pocketfft of ``scipy.signal``, whose import costs about 1.2 s."""
    size = a.size + b.size - 1
    n_fft = 1 << (size - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, n_fft) * np.fft.rfft(b, n_fft), n_fft)[:size]


def _dyadic_spacing(positions: np.ndarray) -> float:
    """Largest power of two of which every position is an integer multiple.

    Exact for any finite floats: a float is its 53-bit integer mantissa times
    2^(exp - 53), and the lowest set bit of that mantissa is its largest
    power-of-two factor.
    """
    mant, exp = np.frexp(positions)
    bits = (mant * 2.0 ** 53).astype(np.int64)
    return float(np.min(np.ldexp((bits & -bits).astype(np.float64), exp - 53)))


def _convolve_dense(m1: AtomicMeasure, m2: AtomicMeasure, delta: float,
                    l_max: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Lattice convolution on the coarsest common lattice g * delta: delta is
    a power of two dividing every position, g the gcd of the exact integers
    positions / delta.  Distinct atoms fill distinct cells, and idx * g * delta
    is the exact pairwise sum.  Returns (positions, masses, overflow)."""
    i1, i2 = (m1.positions / delta).astype(np.int64), (m2.positions / delta).astype(np.int64)
    g = max(int(np.gcd.reduce(np.concatenate((i1, i2)))), 1)  # 0 when every atom is at 0
    v1, v2 = np.zeros(i1[-1] // g + 1), np.zeros(i2[-1] // g + 1)
    v1[i1 // g], v2[i2 // g] = m1.masses, m2.masses
    if v1.size * v2.size > _FFT_THRESHOLD:
        out = _fft_convolve(v1, v2)
        out[np.abs(out) < 1e-16 * max(1.0, out.max(initial=0.0))] = 0.0
    else:
        out = np.convolve(v1, v2)
    idx = np.flatnonzero(out)
    pos = idx * (g * delta)
    mas = out[idx]
    keep = pos <= l_max * (1 + POSITION_RTOL)
    overflow = float(mas[~keep].sum())
    return pos[keep], mas[keep], overflow


def _convolve_outer(m1: AtomicMeasure, m2: AtomicMeasure, l_max: float,
                    held: float = 0.0) -> tuple[np.ndarray, np.ndarray, float]:
    beside = f" beside {held / 2**20:.4g} MiB held" if held else ""
    budget.need(m1.n_atoms * m2.n_atoms + held / 87, 87, f"the off-lattice convolution of "
                f"{m1.n_atoms} x {m2.n_atoms} atoms{beside}", f"analytic.l_max, now {l_max!r}")
    pos = np.add.outer(m1.positions, m2.positions).ravel()
    mas = np.multiply.outer(m1.masses, m2.masses).ravel()
    keep = pos <= l_max * (1 + POSITION_RTOL)
    overflow = float(mas[~keep].sum())
    p, w = _coalesce(pos[keep], mas[keep])
    return p, w, overflow


def convolve(m1: AtomicMeasure, m2: AtomicMeasure, held: float = 0.0) -> AtomicMeasure:
    """Convolution m1 * m2: atom at p1+p2 with mass w1*w2 for every atom pair.

    Mass landing beyond l_max (including anything involving an input deficit)
    is added to the output deficit.  On the common dyadic lattice of both
    operands the sums are formed on dense vectors while their cells fit the
    memory budget; past it they are formed pair by pair and coalesced within
    the position tolerance.  Bytes ``held`` by the caller count into both
    requests.
    """
    l_max = min(m1.l_max, m2.l_max)
    if m1.n_atoms == 0 or m2.n_atoms == 0:
        pos, mas, overflow = np.empty(0), np.empty(0), 0.0
    else:
        delta = min(_dyadic_spacing(m1.positions), _dyadic_spacing(m2.positions))
        try:
            budget.need((m1.positions[-1] + m2.positions[-1]) / delta + held / 76, 76,
                        "the dense convolution's lattice", "analytic.l_max")
        except budget.BudgetError:
            pos, mas, overflow = _convolve_outer(m1, m2, l_max, held)
        else:
            pos, mas, overflow = _convolve_dense(m1, m2, delta, l_max)
    deficit = overflow + m1.deficit * m2.total_mass + m2.deficit * m1.finite_mass
    return AtomicMeasure(pos, mas, l_max, deficit)


# ---------------------------------------------------------------------------
# one-epoch pushforward and HCP iteration
# ---------------------------------------------------------------------------

def epoch_pushforward(mu: AtomicMeasure, d_min: float, d_max: float) -> AtomicMeasure:
    """Final interval law of one coalescence epoch with active range [d_min, d_max).

    With h = mu on the active range, mu_in = mu on [d_max, inf) (it carries
    mu's deficit) and ^ the Laplace transform, the epoch's identity
    1 - mu_out^ = (1 - mu^) exp(h^) reads

        mu_out = mu_in * (delta_0 + E) + sum_{j>=2} (j - 1) h^{*j} / j!,
        E = sum_{k>=1} h^{*k} / k!,

    a sum of nonnegative measures on [d_max, inf) by (A2).  The series is
    finite under truncation, as h^{*k} lives on [k*d_min, inf).
    """
    if 2 * d_min < d_max * (1 - 1e-12):
        raise MeasureError(f"active range violates 2*d_min >= d_max: [{d_min}, {d_max})")
    if mu.n_atoms and mu.positions[0] < d_min * (1 - 1e-12):
        raise MeasureError(f"law has mass at {mu.positions[0]} below d_min={d_min}")
    if d_max > mu.l_max:
        raise MeasureError("l_max must be at least d_max")

    cut = np.searchsorted(mu.positions, _at(d_max))
    if cut == 0:
        return mu  # no active mass: the epoch is a no-op
    h = AtomicMeasure(mu.positions[:cut], mu.masses[:cut], mu.l_max)
    mu_in = AtomicMeasure(mu.positions[cut:], mu.masses[cut:], mu.l_max, mu.deficit)
    total_in = mu.total_mass

    def check(n_held, k):
        budget.need(n_held, 90, f"the pushforward series of the epoch on [{d_min!r}, "
                    f"{d_max!r}), holding {n_held} atoms after {k} terms,",
                    f"analytic.l_max, now {mu.l_max!r}, or epochs")

    e_pos, e_mas = [h.positions], [h.masses]
    n_held = mu.n_atoms + h.n_atoms
    hk, fact, k = h, 1.0, 1
    while True:
        check(n_held, k)
        if (k + 1) * d_min > mu.l_max or hk.finite_mass / fact < 1e-18 * max(1.0, total_in):
            break
        hk = convolve(hk, h, 90 * n_held)
        if hk.n_atoms == 0:
            break
        k += 1
        fact *= k
        e_pos.append(hk.positions)
        e_mas.append(hk.masses / fact)
        n_held += hk.n_atoms
    e = AtomicMeasure(np.concatenate(e_pos), np.concatenate(e_mas), mu.l_max)
    mu_e = convolve(mu_in, e, 90 * n_held)
    check(n_held + mu_e.n_atoms, k)

    # sum_{j>=2} (j - 1) h^{*j} / j! reuses E's terms: e_mas[j - 1] is h^{*j} / j!
    pos, mas = _coalesce(np.concatenate((mu_in.positions, mu_e.positions, *e_pos[1:])),
                         np.concatenate((mu_in.masses, mu_e.masses,
                                         *(m * i for i, m in enumerate(e_mas[1:], 1)))))
    keep = mas > 0.0  # an input atom of mass 0 passes through mu_in; it carries nothing
    pos, mas = pos[keep], mas[keep]
    deficit = max(0.0, total_in - float(mas.sum()))
    return AtomicMeasure(pos, mas, mu.l_max, deficit)


def iterate_hcp_measures(mu1: AtomicMeasure, d, n_epochs: int
                         ) -> tuple[list[AtomicMeasure], list[float]]:
    """Iterate the epoch pushforward along a threshold sequence.

    d : the thresholds, a callable n -> d(n) (1-based), increasing for n up
        to n_epochs + 1.
    Returns (laws, active_masses): laws[n-1] is the interval law at the start
    of epoch n; active_masses[n-1] is its mass on [d(n), d(n+1)).  Each law
    carries its truncation ``deficit``, which the caller judges.
    """
    laws = [mu1]
    active = []
    for n in range(1, n_epochs + 1):
        mu = laws[-1]
        active.append(mu.mass_on(d(n), d(n + 1)))
        if n < n_epochs:
            laws.append(epoch_pushforward(mu, d(n), d(n + 1)))
    return laws, active


def survival_probability_exact(h_masses, n: int, gamma: float) -> float:
    """P(first point unchanged at the start of epoch n+1) given the active
    masses h_masses[j-1] = mu^(j)([d(j), d(j+1))) for j = 1..n:

        exp( - sum_{j=1}^{n} h_j / (1 + gamma) )
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if n > len(h_masses):
        raise ValueError(f"need {n} active masses, got {len(h_masses)}")
    s = float(np.sum(np.asarray(h_masses, dtype=float)[:n]))
    return math.exp(-s / (1.0 + gamma))

