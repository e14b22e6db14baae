"""Samplers for the initial-condition classes of the coalescence dynamics.

Reproducibility contract: every sampler takes a numpy Generator (PCG64).
Replica streams are derived with ``replica_rng(base_seed, r)``, which seeds a
fresh generator from SeedSequence(base_seed, spawn_key=(r,)); replicas are
therefore reproducible and statistically independent, and pooled results do
not depend on execution order.

``draw_spec`` is the one draw implementation: ``sample_spec`` checks its
lengths and wraps them in an ``IntervalConfiguration``, and the simulator
stacks a batch of draws into one array and checks it at once.
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


# ---------------------------------------------------------------------------
# renewal specification variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeftBounded:
    """First point drawn from ``nu``, then i.i.d. gaps from ``mu``."""

    mu: object
    nu: object | None = None  # None means the first point sits at 0
    boundary = Boundary.LEFT_BOUNDED  # unannotated: a class attribute, not a field


@dataclass(frozen=True)
class ContainsOrigin:
    """Two-sided renewal conditioned to contain the origin."""

    mu: object
    boundary = Boundary.WINDOW


@dataclass(frozen=True)
class Stationary:
    """Translation-invariant renewal process; requires a finite-mean ``mu``."""

    mu: object
    boundary = Boundary.WINDOW

    def __post_init__(self):
        if not math.isfinite(self.mu.mean):
            raise SamplingContractError(
                "a stationary renewal process with infinite mean interval law "
                "cannot exist")


@dataclass(frozen=True)
class LatticeStationary:
    """Integer-translation-invariant renewal process on the lattice."""

    mu: object
    boundary = Boundary.WINDOW

    def __post_init__(self):
        if not math.isfinite(self.mu.mean):
            raise SamplingContractError(
                "a lattice-stationary renewal process requires a finite-mean law")


@dataclass(frozen=True)
class ExchangeableMixture:
    """De Finetti mixture: pick a component law, then i.i.d. gaps from it."""

    components: tuple  # of (weight, law)
    boundary = Boundary.LEFT_BOUNDED

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
    boundary = Boundary.PERIODIC


RenewalSpec = (LeftBounded | ContainsOrigin | Stationary | LatticeStationary
               | ExchangeableMixture | PeriodicRenewal)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def draw_spec(spec: RenewalSpec, n_intervals: int, rng) -> tuple[float, np.ndarray, int]:
    """Draw one realization of ``spec`` from ``rng``.

    Returns (first_point, lengths, marked_index): the marked index is that of
    the tracked point among the realization's points (the first point, or the
    origin for origin-containing variants).  The lengths are returned as the
    law produced them; ``check_lengths`` checks them, so a batch of draws is
    checked at once.  The boundary mode is ``spec.boundary``.
    """
    if n_intervals < 1:
        raise ValueError("need at least one interval")
    if isinstance(spec, LeftBounded):
        if spec.nu is None:
            first = 0.0
        elif hasattr(spec.nu, "sample"):
            first = float(spec.nu.sample(rng, 1)[0])
        else:
            first = float(spec.nu)
        return first, spec.mu.sample(rng, n_intervals), 0
    if isinstance(spec, ContainsOrigin):
        n_left = n_intervals // 2
        left = spec.mu.sample(rng, n_left) if n_left else np.empty(0)
        right = spec.mu.sample(rng, n_intervals - n_left)
        return -float(left.sum()), np.concatenate((left[::-1], right)), n_left
    if isinstance(spec, Stationary):
        # exact straddle construction: the interval covering the origin is
        # size-biased and the origin falls uniformly inside it
        straddle = float(spec.mu.sample_size_biased(rng, 1)[0])
        offset = rng.random() * straddle
        rest = spec.mu.sample(rng, n_intervals - 1) if n_intervals > 1 else np.empty(0)
        return -offset, np.concatenate(([straddle], rest)), 0
    if isinstance(spec, LatticeStationary):
        straddle = int(spec.mu.sample_size_biased(rng, 1)[0])
        offset = int(rng.integers(0, straddle))  # 0 means the origin is occupied
        rest = spec.mu.sample(rng, n_intervals - 1) if n_intervals > 1 else np.empty(0)
        return float(-offset), np.concatenate(([float(straddle)], rest)), 0
    if isinstance(spec, ExchangeableMixture):
        weights = np.array([w for w, _ in spec.components], dtype=float)
        idx = int(rng.choice(len(weights), p=weights / weights.sum()))
        return 0.0, spec.components[idx][1].sample(rng, n_intervals), 0
    if isinstance(spec, PeriodicRenewal):
        # uniform marker on the circle, snapped to the following point
        return 0.0, spec.mu.sample(rng, n_intervals), 0
    raise TypeError(f"unknown renewal specification {spec!r}")


def check_lengths(spec: RenewalSpec, lengths: np.ndarray) -> np.ndarray:
    """``lengths`` (one draw or a replicas x intervals batch of them) if each
    is positive and finite, and an integer for a lattice-stationary spec."""
    if not ((lengths > 0) & (lengths < np.inf)).all():  # a NaN fails both
        raise SamplingContractError("law produced a nonpositive or non-finite length")
    if isinstance(spec, LatticeStationary) and np.any(np.rint(lengths) != lengths):
        raise SamplingContractError("lattice law produced a non-integer gap")
    return lengths


def sample_spec(spec: RenewalSpec, n_intervals: int, rng) -> tuple[IntervalConfiguration, int]:
    """Realize a renewal specification: (configuration, marked_index), the
    draws of ``draw_spec`` checked and wrapped."""
    first, lengths, marked = draw_spec(spec, n_intervals, rng)
    return IntervalConfiguration(first, check_lengths(spec, lengths), spec.boundary), marked
