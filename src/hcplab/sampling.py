"""Samplers for the initial-condition classes of the coalescence dynamics.

Reproducibility contract: every sampler takes a numpy Generator (PCG64).
Replica streams are derived with ``replica_rng(base_seed, r)``, which seeds a
fresh generator from SeedSequence(base_seed, spawn_key=(r,)); replicas are
therefore reproducible and statistically independent, and pooled results do
not depend on execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Boundary, IntervalConfiguration
from .laws import SamplingContractError


def replica_rng(base_seed: int, replica: int = 0) -> np.random.Generator:
    """Independent, reproducible stream for one replica."""
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(replica,)))


def _check_lengths(lengths: np.ndarray) -> np.ndarray:
    if not ((lengths > 0) & (lengths < np.inf)).all():  # a NaN fails both
        raise SamplingContractError("law produced a nonpositive or non-finite length")
    return lengths


# ---------------------------------------------------------------------------
# renewal specification variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeftBounded:
    """First point drawn from ``nu``, then i.i.d. gaps from ``mu``."""

    mu: object
    nu: object | None = None  # None means the first point sits at 0


@dataclass(frozen=True)
class ContainsOrigin:
    """Two-sided renewal conditioned to contain the origin."""

    mu: object


@dataclass(frozen=True)
class Stationary:
    """Translation-invariant renewal process; requires a finite-mean ``mu``."""

    mu: object

    def __post_init__(self):
        if not math.isfinite(self.mu.mean):
            raise SamplingContractError(
                "a stationary renewal process with infinite mean interval law "
                "cannot exist")


@dataclass(frozen=True)
class LatticeStationary:
    """Integer-translation-invariant renewal process on the lattice."""

    mu: object

    def __post_init__(self):
        if not math.isfinite(self.mu.mean):
            raise SamplingContractError(
                "a lattice-stationary renewal process requires a finite-mean law")


@dataclass(frozen=True)
class ExchangeableMixture:
    """De Finetti mixture: pick a component law, then i.i.d. gaps from it."""

    components: tuple  # of (weight, law)

    def __post_init__(self):
        if len(self.components) == 0:
            raise SamplingContractError("mixture needs at least one component")
        weights = np.array([w for w, _ in self.components], dtype=float)
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise SamplingContractError("mixture weights must be nonnegative and sum to 1")


@dataclass(frozen=True)
class PeriodicRenewal:
    """i.i.d. gaps on a circle with a marker point: the opt-in boundary-free
    stand-in for a stationary process, with bias O(1/circumference)."""

    mu: object


RenewalSpec = (LeftBounded | ContainsOrigin | Stationary | LatticeStationary
               | ExchangeableMixture | PeriodicRenewal)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_left_bounded(nu, mu, n_intervals: int, rng) -> IntervalConfiguration:
    """Left-bounded renewal realization: first point ~ nu, gaps i.i.d. ~ mu."""
    if n_intervals < 1:
        raise ValueError("need at least one interval")
    if nu is None:
        first = 0.0
    elif hasattr(nu, "sample"):
        first = float(nu.sample(rng, 1)[0])
    else:
        first = float(nu)
    lengths = _check_lengths(mu.sample(rng, n_intervals))
    return IntervalConfiguration(first, lengths, Boundary.LEFT_BOUNDED)


def sample_stationary(mu, n_intervals: int, rng,
                      periodic: bool = False) -> IntervalConfiguration:
    """Stationary renewal realization around the origin.

    Default (exact straddle construction): the interval covering the origin
    is drawn size-biased (density proportional to t mu(dt)), the origin falls
    uniformly inside it, and further gaps are i.i.d.; returned as a WINDOW
    whose first point is the straddler's left end.

    periodic=True instead lays i.i.d. gaps on a circle with a uniformly
    placed marker; this is an approximation whose bias is O(1/circumference),
    in exchange for having no edges at all.
    """
    if not math.isfinite(mu.mean):
        raise SamplingContractError(
            "a stationary renewal process with infinite mean interval law cannot exist")
    if n_intervals < 1:
        raise ValueError("need at least one interval")
    if periodic:
        lengths = _check_lengths(mu.sample(rng, n_intervals))
        # uniform marker on the circle, snapped to the following point
        return IntervalConfiguration(0.0, lengths, Boundary.PERIODIC)
    straddle = float(mu.sample_size_biased(rng, 1)[0])
    offset = rng.random() * straddle  # origin uniform inside the straddler
    first = -offset
    rest = _check_lengths(mu.sample(rng, n_intervals - 1)) if n_intervals > 1 else np.empty(0)
    lengths = np.concatenate(([straddle], rest))
    return IntervalConfiguration(first, lengths, Boundary.WINDOW)


def sample_lattice_stationary(mu, n_intervals: int, rng) -> IntervalConfiguration:
    """Lattice-stationary renewal realization (integer gaps).

    The gap straddling the origin is size-biased, the origin offset is
    uniform on {0, ..., D-1} (so the origin is occupied with probability
    1/mean), and further gaps are i.i.d.
    """
    if not math.isfinite(mu.mean):
        raise SamplingContractError(
            "a lattice-stationary renewal process requires a finite-mean law")
    if n_intervals < 1:
        raise ValueError("need at least one interval")
    straddle = int(mu.sample_size_biased(rng, 1)[0])
    offset = int(rng.integers(0, straddle))  # 0 means the origin is occupied
    rest = _check_lengths(mu.sample(rng, n_intervals - 1)) if n_intervals > 1 else np.empty(0)
    if np.any(np.rint(rest) != rest):
        raise SamplingContractError("lattice law produced a non-integer gap")
    lengths = np.concatenate(([float(straddle)], rest))
    return IntervalConfiguration(float(-offset), lengths, Boundary.WINDOW)


def sample_exchangeable(components, n_intervals: int, rng) -> IntervalConfiguration:
    """Exchangeable realization containing the origin: draw one component by
    weight, then i.i.d. gaps from it; the first point sits at 0."""
    mixture = components if isinstance(components, ExchangeableMixture) \
        else ExchangeableMixture(tuple(components))
    weights = np.array([w for w, _ in mixture.components], dtype=float)
    idx = int(rng.choice(len(weights), p=weights / weights.sum()))
    law = mixture.components[idx][1]
    lengths = _check_lengths(law.sample(rng, n_intervals))
    return IntervalConfiguration(0.0, lengths, Boundary.LEFT_BOUNDED)


def sample_spec(spec: RenewalSpec, n_intervals: int, rng) -> tuple[IntervalConfiguration, int]:
    """Realize a renewal specification.

    Returns (configuration, marked_index): the index of the tracked point
    among the configuration's points (the first point, or the origin for
    origin-containing variants).
    """
    if isinstance(spec, LeftBounded):
        return sample_left_bounded(spec.nu, spec.mu, n_intervals, rng), 0
    if isinstance(spec, ContainsOrigin):
        n_left = n_intervals // 2
        n_right = n_intervals - n_left
        left = _check_lengths(spec.mu.sample(rng, n_left)) if n_left else np.empty(0)
        right = _check_lengths(spec.mu.sample(rng, n_right))
        lengths = np.concatenate((left[::-1], right))
        first = -float(left.sum())
        return IntervalConfiguration(first, lengths, Boundary.WINDOW), n_left
    if isinstance(spec, Stationary):
        return sample_stationary(spec.mu, n_intervals, rng), 0
    if isinstance(spec, LatticeStationary):
        return sample_lattice_stationary(spec.mu, n_intervals, rng), 0
    if isinstance(spec, ExchangeableMixture):
        return sample_exchangeable(spec, n_intervals, rng), 0
    if isinstance(spec, PeriodicRenewal):
        lengths = _check_lengths(spec.mu.sample(rng, n_intervals))
        return IntervalConfiguration(0.0, lengths, Boundary.PERIODIC), 0
    raise TypeError(f"unknown renewal specification {spec!r}")
