"""Samplers for the initial-condition classes of the coalescence dynamics.

Reproducibility contract: every sampler takes a numpy Generator (PCG64).
Replica r of seed s draws from the generator that numpy's
SeedSequence(s, spawn_key=(r,)) seeds, bit for bit, so replicas are
reproducible and independent, and pooled results do not depend on execution
order.  ``replica_rng`` (one replica) and ``replica_rngs`` (a run of them)
both derive it with ``_pcg_words``: SeedSequence's uint32 hashing on a
Python int or on a block of replica indices at once, the words of s hashed
once per seed.  Spawning goes through a real SeedSequence, built at the
first spawn.

``draw_spec`` is the one draw implementation: the simulator writes a batch
of draws into one array and ``check_lengths`` checks it at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .epoch import Boundary
from .laws import SamplingContractError

# SeedSequence's constants (numpy.random.bit_generator): every step is uint32
# arithmetic, kept below 2^32 by masking, so it runs on a Python int or on a
# uint64 array (whose products of two words fit in 64 bits) alike.
_M32, _POOL = 0xFFFFFFFF, 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# replica streams derived at once by ``replica_rngs``: 32 KiB of words, and
# numpy's per-call overhead is under 0.1 us per replica
_BLOCK = 1024


def _hashmix(value, const: int, mult: int = _MULT_A):
    """(hashed word, next hash constant)."""
    value = value ^ const
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix_in(pool: list, word, const: int, skip: int = -1) -> int:
    """Mix the hashed ``word`` into every pool entry but ``skip``, in place;
    returns the next hash constant."""
    for dst in range(_POOL):
        if dst != skip:
            value, const = _hashmix(word, const)
            value = (_MIX_L * pool[dst] - _MIX_R * value) & _M32
            pool[dst] = value ^ value >> 16
    return const


@lru_cache(maxsize=8)
def _seed_pool(base_seed: int) -> tuple[tuple, int]:
    """SeedSequence's pool and hash constant once every word of ``base_seed``
    (zero-padded to the pool size) is mixed in, before the spawn key."""
    base_seed = operator.index(base_seed)
    if base_seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {base_seed}")
    words = [base_seed >> s & _M32 for s in range(0, max(base_seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    pool, const = [], _INIT_A
    for word in words[:_POOL]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL):
        const = _mix_in(pool, pool[src], const, skip=src)
    for word in words[_POOL:]:
        const = _mix_in(pool, word, const)
    return tuple(pool), const


def _pcg_words(base_seed: int, replica):
    """The four uint64 words SeedSequence(base_seed, spawn_key=(replica,))
    seeds PCG64 with, as a list: four ints for an int ``replica``, four
    arrays for a uint64 array of them.  Replica indices stay below 2^32, one
    spawn-key word."""
    pool, const = _seed_pool(base_seed)
    pool = list(pool)
    _mix_in(pool, replica, const)
    const, words = _INIT_B, []
    for i in range(2 * _POOL):  # generate_state's uint32 words, paired little-endian
        value, const = _hashmix(pool[i % _POOL], const, _MULT_B)
        words.append(value)
    return [words[i] | words[i + 1] << 32 for i in range(0, 2 * _POOL, 2)]


@cache
def _stream_maker():
    """``make(base_seed, replica, words)``, the Generator of one replica
    stream; defined at first use, so that importing hcplab does not load
    numpy.random."""
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISpawnableSeedSequence

    class ReplicaSeed(ISpawnableSeedSequence):
        """SeedSequence(base_seed, spawn_key=(replica,)) with its PCG64 words
        derived already.  Anything else goes through that SeedSequence,
        built at first need and kept, so successive spawns advance as
        numpy's do."""

        def __init__(self, base_seed: int, replica: int, words: np.ndarray):
            self.base_seed, self.replica, self.words = base_seed, replica, words
            self.sequence = None

        def seed_sequence(self) -> SeedSequence:
            if self.sequence is None:
                self.sequence = SeedSequence(self.base_seed, spawn_key=(self.replica,))
            return self.sequence

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == _POOL and np.dtype(dtype) == np.uint64:
                return self.words
            return self.seed_sequence().generate_state(n_words, dtype)

        def spawn(self, n_children):
            return self.seed_sequence().spawn(n_children)

        def __reduce__(self):  # pickles as the SeedSequence it stands for
            return self.seed_sequence().__reduce__()

    return lambda base_seed, replica, words: Generator(PCG64(
        ReplicaSeed(base_seed, replica, words)))


def replica_rng(base_seed: int, replica: int = 0) -> np.random.Generator:
    """Independent, reproducible stream for one replica."""
    replica = operator.index(replica)
    if not 0 <= replica < 1 << 32:
        raise ValueError(f"replica index must be in [0, 2^32), got {replica}")
    return _stream_maker()(base_seed, replica,
                           np.array(_pcg_words(base_seed, replica), np.uint64))


def replica_rngs(base_seed: int, n_replicas: int):
    """The streams of replicas 0..n_replicas-1 in order: those of
    ``replica_rng``, derived ``_BLOCK`` at a time as they are consumed."""
    if n_replicas > 1 << 32:
        raise ValueError(f"replica indices must be below 2^32, got {n_replicas} replicas")
    make = _stream_maker()
    for lo in range(0, n_replicas, _BLOCK):
        replicas = np.arange(lo, min(lo + _BLOCK, n_replicas), dtype=np.uint64)
        for r, words in enumerate(np.stack(_pcg_words(base_seed, replicas), axis=1), lo):
            yield make(base_seed, r, words)


# ---------------------------------------------------------------------------
# renewal specification variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeftBounded:
    """First point at ``first_point``, then i.i.d. gaps from ``mu``."""

    mu: object
    first_point: float = 0.0
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
    stand-in for a stationary process, with bias O(1 / the total length)."""

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
        return spec.first_point, spec.mu.sample(rng, n_intervals), 0
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
    if not (lengths.min() > 0 and lengths.max() < np.inf):  # a NaN fails both
        raise SamplingContractError("law produced a nonpositive or non-finite length")
    if isinstance(spec, LatticeStationary) and np.any(np.rint(lengths) != lengths):
        raise SamplingContractError("lattice law produced a non-integer gap")
    return lengths
