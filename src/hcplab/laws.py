"""Interval-law objects: samplers plus exact views for the analytics.

Each law can draw i.i.d. interval lengths; laws used as stationary interval
laws also expose their mean and a size-biased sampler (the interval covering
the origin of a stationary process has length-biased law).  Laws with atoms
expose an AtomicMeasure view so the same object feeds both the simulator and
the measure analytics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import budget
from .measures import AtomicMeasure


# log(smallest positive float / 2); a positive value below that rounds to 0.0
_LOG_HALF_SUBNORMAL = math.log(np.finfo(np.float64).smallest_subnormal) - math.log(2.0)


class SamplingContractError(ValueError):
    """A sampler produced values violating its contract (e.g. nonpositive)."""


@dataclass(frozen=True)
class DiracLaw:
    """Point mass at a fixed positive length."""

    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise SamplingContractError("interval lengths must be positive")

    @property
    def mean(self) -> float:
        return self.value

    def sample(self, rng, size: int) -> np.ndarray:
        return np.full(size, self.value, dtype=np.float64)

    def sample_size_biased(self, rng, size: int) -> np.ndarray:
        return self.sample(rng, size)

    def atomic(self, l_max: float) -> AtomicMeasure:
        return AtomicMeasure(np.array([self.value]), np.array([1.0]), l_max)


@dataclass(frozen=True)
class GeometricLaw:
    """Geometric law on {1, 2, ...}: P(k) = q (1-q)^(k-1), mean 1/q."""

    q: float

    def __post_init__(self):
        if not 0 < self.q <= 1:
            raise SamplingContractError("geometric parameter must lie in (0, 1]")

    @property
    def mean(self) -> float:
        return 1.0 / self.q

    def sample(self, rng, size: int) -> np.ndarray:
        return rng.geometric(self.q, size=size).astype(np.float64)

    def sample_size_biased(self, rng, size: int) -> np.ndarray:
        # P*(k) proportional to k q (1-q)^(k-1): sum of two independent
        # geometrics minus one (negative binomial shifted into {1,2,...})
        g = rng.geometric(self.q, size=(2, size)).sum(axis=0) - 1
        return g.astype(np.float64)

    def atomic(self, l_max: float) -> AtomicMeasure:
        n = int(l_max)
        # far atoms underflow to exactly 0.0 (past k ~ 7,000 for q = 0.1);
        # they carry no mass and would only widen every later array.  Past
        # the k where (1-q)^(k-1) drops below half the smallest positive
        # float, it and the mass round to 0.0, so only that prefix (plus 2
        # for the rounding of pow and of the bound) is computed.
        if self.q == 1.0:
            last = 1
        else:
            last = _LOG_HALF_SUBNORMAL / math.log1p(-self.q) + 2.0
        count = n if last >= n else int(last)
        budget.need(count, 43, f"the geometric law, with {count} atoms,",
                    "analytic.l_max, or raise initial_law.q")
        k = np.arange(1, count + 1, dtype=np.float64)
        masses = self.q * (1 - self.q) ** (k - 1)
        keep = masses > 0.0
        return AtomicMeasure(k[keep], masses[keep], l_max, deficit=(1 - self.q) ** n)


@dataclass(frozen=True)
class AtomicLaw:
    """Law given directly by a normalized AtomicMeasure."""

    measure: AtomicMeasure

    def __post_init__(self):
        if abs(self.measure.total_mass - 1.0) > 1e-9:
            raise SamplingContractError("atomic law must have total mass 1")

    @property
    def mean(self) -> float:
        return self.measure.mean()

    def sample(self, rng, size: int) -> np.ndarray:
        cum = np.cumsum(self.measure.masses)
        cum /= cum[-1]
        idx = np.searchsorted(cum, rng.random(size), side="right")
        return self.measure.positions[np.minimum(idx, self.measure.n_atoms - 1)]

    def sample_size_biased(self, rng, size: int) -> np.ndarray:
        w = self.measure.positions * self.measure.masses
        cum = np.cumsum(w)
        cum /= cum[-1]
        idx = np.searchsorted(cum, rng.random(size), side="right")
        return self.measure.positions[np.minimum(idx, self.measure.n_atoms - 1)]

    def atomic(self, l_max: float) -> AtomicMeasure:
        if l_max >= self.measure.l_max:
            # widening the truncation bound is sound: nothing was dropped there
            return AtomicMeasure(self.measure.positions, self.measure.masses,
                                 l_max, self.measure.deficit)
        keep = self.measure.positions <= l_max
        dropped = float(self.measure.masses[~keep].sum())
        return AtomicMeasure(self.measure.positions[keep], self.measure.masses[keep],
                             l_max, self.measure.deficit + dropped)


def two_point_law(a: float, b: float, p_a: float = 0.5) -> AtomicLaw:
    return AtomicLaw(AtomicMeasure(np.array([a, b]), np.array([p_a, 1 - p_a]),
                                   max(a, b)))


@dataclass(frozen=True)
class ParetoHalfLaw:
    """Tail x^(-1/2) on [1, inf): F(x) = 1 - x^(-1/2); infinite mean.

    The transform and its derivative have closed forms used by the c0
    estimator:  g(s) = e^{-s} - sqrt(pi s) erfc(sqrt(s)),
                g'(s) = -(1/2) sqrt(pi/s) erfc(sqrt(s)).
    """

    @property
    def mean(self) -> float:
        return math.inf

    def sample(self, rng, size: int) -> np.ndarray:
        return rng.random(size) ** -2.0

    def transform(self, s) -> np.ndarray:
        from scipy.special import erfc  # imported here: only this law needs scipy

        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.exp(-s) - np.sqrt(np.pi * s) * erfc(np.sqrt(s))

    def transform_derivative(self, s) -> np.ndarray:
        from scipy.special import erfc

        s = np.atleast_1d(np.asarray(s, dtype=float))
        return -0.5 * np.sqrt(np.pi / s) * erfc(np.sqrt(s))


@dataclass(frozen=True)
class ExpGeometricLaw:
    """Law of e^G with G geometric({1,2,...}, success probability p).

    Finite mean iff (1-p) e < 1; the infinite-mean regime is the prototypical
    law whose tail ratio oscillates instead of settling on a c0.
    """

    p: float

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise SamplingContractError("p must lie in (0, 1)")

    @property
    def mean(self) -> float:
        r = (1 - self.p) * math.e
        if r >= 1:
            return math.inf
        return self.p * math.e / (1 - r)

    def sample(self, rng, size: int) -> np.ndarray:
        # a draw past e^709 is inf, which sampling.check_lengths rejects
        with np.errstate(over="ignore"):
            return np.exp(rng.geometric(self.p, size=size).astype(np.float64))

    def sample_size_biased(self, rng, size: int) -> np.ndarray:
        # P*(k) proportional to e^k p (1-p)^(k-1), that is to ((1-p) e)^k: G
        # size-biased is geometric with success probability 1 - (1-p) e
        with np.errstate(over="ignore"):
            return np.exp(rng.geometric(1 - (1 - self.p) * math.e, size=size).astype(np.float64))

    def atomic(self, n_atoms: int = 120, l_max: float | None = None) -> AtomicMeasure:
        """Atoms at e^k with masses p (1-p)^(k-1) for k = 1..n_atoms; the rest,
        (1-p)^n_atoms, is the deficit.  l_max defaults to the last atom."""
        if n_atoms < 1:
            raise SamplingContractError("need at least one atom")
        k = np.arange(1, n_atoms + 1)
        pos = np.exp(k.astype(float))
        mas = self.p * (1 - self.p) ** (k - 1.0)
        return AtomicMeasure(pos, mas, float(pos[-1]) if l_max is None else l_max,
                             (1 - self.p) ** n_atoms)
