"""Chain one-epoch runs into the hierarchical process and collect observables.

Observables are recorded at each epoch START (the state produced by the
previous epoch), matching the interval laws computed by the measure
analytics.  The state is the drawn interval lengths: a merge adds lengths,
no coordinate is ever differenced, and points are known by index.

One engine runs 1 or R replicas as one segmented length array: one resolver
call and one merge per batch and epoch.  A batch is a fixed number of
replicas, drawn straight into one checked array and run in one place.
Replica r draws from its own stream only, in the same order whatever batch
it runs in.  Each epoch's summary goes into that epoch's fold as soon as it
is formed, at the z stride the fold sets first, so a batch forms only the z
that are kept, picked by index at a cost in kept z.  How many z a replica
holds at a stride is ``z_held``, for the fold and the samples.csv writer alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import budget
from .epoch import Boundary, StateSpaceError, _simulate_points, core_ranges, gap_floor
from .sampling import RenewalSpec, check_lengths, draw_spec, replica_rngs
from .schedule import EpochSchedule

# A batch holds as many replicas as fit in _BATCH_POINTS initial points, and
# at most _BATCH_REPLICAS of them (at least one).  Narrow replicas spend their
# time in per-replica stream calls, so a bigger batch of them buys little
# speed with memory.  Left-bounded 64-interval replicas, in-process on a
# 2-core Xeon, at 256 / 512 / 768 / 1,008 a batch: 5,000 took 75 / 71 / 69 /
# 69 ms, and the process that simulates them peaked at 39.7 / 39.9 / 40.8 /
# 42.0 MiB; 100,000 took 1.58 / 1.40 / 1.35 / 1.34 s.  Wide replicas keep
# 2^16 points: 2,000 of criterion 5's 8,192 intervals took 1.68 / 1.20 /
# 1.17 s at 2^15 / 2^16 / 2^17 points.
_BATCH_POINTS = 1 << 16
_BATCH_REPLICAS = 512
# A target_core window's pilot: its initial intervals, and the factor on its estimate.
_PILOT_INTERVALS = 4096
_PILOT_SAFETY = 1.6


class WindowExhaustedError(RuntimeError):
    """The finite window ran out of intervals before the requested epoch."""

    def __init__(self, epoch: int):
        super().__init__(f"window exhausted at epoch {epoch}; enlarge the initial window")
        self.epoch = epoch


class WindowTooLargeError(ValueError):
    """A replica's initial lengths sum past the float range."""


def check_window(n_intervals: float, knobs: str) -> None:
    """Refuse ``n_intervals`` initial intervals per replica past the memory
    budget, before any is drawn: a one-replica batch peaks below 64 bytes a point."""
    budget.need(n_intervals, 64, f"a window of {n_intervals} initial intervals per replica", knobs)


@dataclass(frozen=True)
class WindowPolicy:
    """How large the simulated window is and how edges are excluded.

    n_intervals : explicit initial interval count, or None to size from
        target_core: a pilot run estimates the per-run shrink factor and the
        initial count is (target + buffered edge cost) * shrink * safety.
        One pilot, on the first replica's stream, sizes every replica.
    buffer_factor : length excluded near each truncated edge when reading
        interval statistics at epoch n is buffer_factor * sum_{j<=n} d(j).
    """

    n_intervals: int | None = None
    target_core: int | None = None
    buffer_factor: float = 16.0

    def __post_init__(self):
        if self.n_intervals is None and self.target_core is None:
            raise ValueError("window policy needs n_intervals or target_core")


@dataclass(frozen=True)
class EpochSummary:
    """Observables at the start of one epoch, possibly pooled over replicas.

    Arrays indexed by sample (z_samples) or by replica (everything else): row
    r of a pooled summary is replica r.  The first point sits at y * d_n.
    z_stride says which core z-samples are held: 1 all of them, S > 1 those
    at in-replica core index i with i % S == 0 (replica by replica, in
    replica order), 0 none.
    """

    epoch: int
    d_n: float
    z_stride: int
    z_samples: np.ndarray
    y: np.ndarray
    first_point_survived: np.ndarray
    origin_alive: np.ndarray  # the marked point (origin of origin-containing specs)
    n_intervals: np.ndarray
    core_sizes: np.ndarray


_ARRAY_FIELDS = [f.name for f in fields(EpochSummary)[3:]]


def z_held(core_sizes: np.ndarray, stride: int) -> np.ndarray:
    """How many core z each replica holds at a stride S > 0: ceil(core_r / S)."""
    return -(-core_sizes // stride)


def _kept(core_sizes: np.ndarray, have: int, want: int, offsets=None) -> np.ndarray:
    """Indices, into the core z of replicas with ``core_sizes`` held at stride
    ``have``, of those held at stride ``want`` (a multiple of ``have``, or 0):
    replica r, held from offset_r (``offsets[r]`` if given), keeps
    offset_r + (want / have) j for j < ``z_held`` at ``want``."""
    if want == 0:
        return np.empty(0, dtype=np.int64)
    step, kept = want // have, z_held(core_sizes, want)
    if offsets is None:
        held = z_held(core_sizes, have)
        offsets = np.cumsum(held) - held
    base = offsets - step * (np.cumsum(kept) - kept)
    return np.repeat(base, kept) + step * np.arange(int(kept.sum()))


class _EpochFold:
    """One epoch's summary, folded in batch by batch as each batch forms it.

    Per-replica fields are kept whole.  With ``keep`` = k, the core z of each
    replica is held at stride S, the smallest power of two with
    sum_r ceil(core_r / S) <= k, or at 0 when k is 0 or below the number of
    replicas with a nonempty core.  S only grows as batches arrive, and the
    powers of two nest, so the held values depend on the totals alone.  Kept
    z are picked by index (``_kept``), at a cost in kept z, not in core z.
    """

    def __init__(self, keep: int | None):
        self.keep = keep
        self.parts: list[EpochSummary] = []
        self.stride = 1
        self.held = 0
        self.nonempty = 0

    def admit(self, core_sizes: np.ndarray) -> int:
        """Count in a batch's cores, thin the held parts if the stride grows,
        and return the stride at which the batch forms its z."""
        if self.keep is None:
            return 1
        self.nonempty += int(np.count_nonzero(core_sizes))
        stride = self.stride
        if self.keep < max(self.nonempty, 1):
            stride, self.held = 0, 0
        else:
            self.held += int(z_held(core_sizes, stride).sum())
            while self.held > self.keep:
                stride *= 2
                self.held = sum(int(z_held(c, stride).sum())
                                for c in [p.core_sizes for p in self.parts] + [core_sizes])
        if stride != self.stride:
            self.parts = [replace(p, z_stride=stride,
                                  z_samples=p.z_samples[_kept(p.core_sizes, self.stride, stride)])
                          for p in self.parts]
            self.stride = stride
        return stride

    def pop(self) -> EpochSummary:
        """The pooled summary; the fold lets go of its parts."""
        parts, self.parts = self.parts, []
        return EpochSummary(parts[0].epoch, parts[0].d_n, self.stride,
                            *(np.concatenate([getattr(p, name) for p in parts])
                              for name in _ARRAY_FIELDS))


def _pilot_initial_count(spec, schedule, n_epochs, policy, rng) -> int:
    """Size the window from a pilot run: survivors-per-initial ratio plus the
    interval cost of the edge buffers."""
    pilot_n = _PILOT_INTERVALS
    for _ in range(4):
        try:
            final = _run(spec, schedule, n_epochs,
                         WindowPolicy(n_intervals=pilot_n, buffer_factor=policy.buffer_factor),
                         rng.spawn(1), 0)[-1]
        except WindowExhaustedError:
            pilot_n *= 4
            continue
        survivors = int(final.n_intervals.sum())
        if survivors < 8:
            pilot_n *= 4
            continue
        buffered = survivors - int(final.core_sizes.sum())
        return math.ceil((policy.target_core + buffered + 4) * (pilot_n / survivors)
                         * _PILOT_SAFETY)
    raise WindowExhaustedError(n_epochs)


def _draw(spec, n0: int, rngs):
    """Draw ``n0`` intervals from each stream of ``rngs``, each straight into
    its row, checked at once: (first points, rows of a slot per point, marked
    indices).  A row is the lengths, then +inf unless periodic; a sum past
    the float range is refused."""
    n_replicas = len(rngs)
    rows = np.ones((n_replicas, n0 + (spec.boundary is not Boundary.PERIODIC)))
    firsts, marked = np.empty(n_replicas), np.empty(n_replicas, dtype=np.int64)
    lengths = rows[:, :n0]
    for i, rng in enumerate(rngs):
        firsts[i], lengths[i], marked[i] = draw_spec(spec, n0, rng)
    check_lengths(spec, rows)  # whole rows, so that no copy is made: the slots after are 1
    rows[:, n0:] = np.inf
    with np.errstate(over="ignore"):  # an overflow is refused here
        if not np.isfinite(lengths.sum(axis=1)).all():
            raise WindowTooLargeError(f"{n0} initial intervals per replica, whose initial_law "
                                      "lengths sum past the float range")
    return firsts, rows, marked


def _run_batch(spec, schedule: EpochSchedule, window: WindowPolicy, n0: int, rngs,
               folds: list[_EpochFold]) -> None:
    """Draw one replica per stream of ``rngs``, run them as one segmented array
    for ``len(folds)`` epochs, and fold each epoch's summary into its fold as
    it is formed, with only the z that the fold keeps."""
    shift, rows, marked = _draw(spec, n0, rngs)
    periodic = spec.boundary is Boundary.PERIODIC
    n_replicas, width = rows.shape
    lengths = rows.reshape(-1)
    bounds = np.arange(0, lengths.size + 1, width)  # replica r: bounds[r]:bounds[r+1]
    marked = marked + bounds[:-1]  # the marked points, or -1 once erased
    lead = np.zeros(n_replicas)  # the lengths merged into the left boundary

    buffer_len = 0.0
    for n, fold in enumerate(folds, start=1):
        d_n = schedule.d(n)
        buffer_len += window.buffer_factor * d_n
        shortest = float(lengths.min())
        if shortest < gap_floor(d_n):
            if n == 1:  # the initial law has mass below d(1)
                raise StateSpaceError(f"initial interval {shortest!r} below d(1) = {d_n!r}")
            raise AssertionError(  # a later epoch starts from an absorbing state
                f"epoch {n} start has interval {shortest} below d({n})={d_n}")
        core, core_sizes = core_ranges(lengths, bounds, spec.boundary, buffer_len, shortest)
        stride = fold.admit(core_sizes)
        fold.parts.append(EpochSummary(
            epoch=n,
            d_n=d_n,
            z_stride=stride,
            z_samples=(lengths[_kept(core_sizes, 1, stride, core)] / d_n
                       if stride else np.empty(0)),
            y=(lead + shift) / d_n,
            first_point_survived=lead == 0.0,
            origin_alive=marked >= 0,
            n_intervals=np.diff(bounds) - (not periodic),
            core_sizes=core_sizes,
        ))
        if n == len(folds):
            break
        starts = bounds[:-1]
        alive = _simulate_points(lengths, starts, schedule.rates_for(n), rngs)
        keep, dead = np.flatnonzero(alive), np.flatnonzero(~alive)
        bounds = keep.searchsorted(bounds)
        if np.diff(bounds).min() < (1 if periodic else 2):
            raise WindowExhaustedError(n + 1)
        marked = np.where((marked >= 0) & alive[marked], keep.searchsorted(marked), -1)
        # Dead lengths join, left to right, the interval of the alive point
        # before them (index: alive points before, less one); segment r's
        # leading run, dead[at[r]:at[r] + k[r]], joins slot K + r instead.
        owner = dead - np.arange(1, dead.size + 1)
        k = keep[bounds[:-1]] - starts
        at = np.repeat(dead.searchsorted(starts) - np.cumsum(k) + k, k) + np.arange(k.sum())
        owner[at] = keep.size + np.repeat(np.arange(n_replicas), k)
        sums = np.concatenate((lengths[keep], np.zeros(n_replicas)))
        np.add.at(sums, owner, lengths[dead])
        lengths, run = sums[:keep.size], sums[keep.size:]
        lengths[bounds[1:] - 1] += run  # a circle's last interval wraps round
        lead += run  # y = (lead + shift) / d_n


def run_hcp(spec: RenewalSpec, schedule: EpochSchedule, n_epochs: int,
            window: WindowPolicy, rng: np.random.Generator) -> list[EpochSummary]:
    """Run the hierarchical process for ``n_epochs`` on the stream ``rng`` and
    return the summary recorded at the start of each epoch (epoch n runs only
    for n < n_epochs).  One epoch run to its absorbing state is ``n_epochs``
    = 2, read at the second summary."""
    return _run(spec, schedule, n_epochs, window, [rng])


def replicate(spec: RenewalSpec, schedule: EpochSchedule, n_epochs: int,
              n_replicas: int, base_seed: int, window: WindowPolicy,
              z_per_epoch: int | None = None) -> list[EpochSummary]:
    """Pool independent replicas; replica r uses ``replica_rng(base_seed, r)``,
    so the pooled output is reproducible and does not depend on how replicas
    are batched.  The streams are derived a block at a time as the batches
    consume them (``sampling.replica_rngs``), so memory stays bounded by a
    batch; ``n_replicas`` is at most 2^32.

    ``z_per_epoch`` None keeps every core z-sample.  An integer k keeps, per
    epoch, every S-th core z of each replica, with S the smallest power of
    two that keeps at most k (see ``EpochSummary.z_stride``); 0 keeps none.
    Per-replica fields are always kept whole.
    """
    if n_replicas < 1:
        raise ValueError("need at least one replica")
    if z_per_epoch is not None and z_per_epoch < 0:
        raise ValueError("z_per_epoch must be None or at least 0")
    return _run(spec, schedule, n_epochs, window, replica_rngs(base_seed, n_replicas),
                z_per_epoch)


def _run(spec, schedule, n_epochs, window, streams,
         z_per_epoch: int | None = None) -> list[EpochSummary]:
    """Run one replica per stream of ``streams``, a fixed number of replicas
    per batch, each batch folding each epoch into the per-epoch summaries as
    it forms it; a window that runs out raises for the earliest epoch at which
    any replica runs out.  Every replica has ``window.n_intervals`` intervals,
    or else one pilot run's count, sized from the first stream; a count past
    the memory budget raises before anything is drawn."""
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    schedule.validate(n_epochs)
    streams = iter(streams)
    first = next(streams)
    n0 = window.n_intervals
    if n0 is None:
        n0 = _pilot_initial_count(spec, schedule, n_epochs, window, first)
    check_window(n0, "window.target_core" if window.n_intervals is None else "window.n_intervals")
    width = n0 if spec.boundary is Boundary.PERIODIC else n0 + 1
    streams = itertools.chain([first], streams)
    size = max(1, min(_BATCH_POINTS // width, _BATCH_REPLICAS))
    folds, exhausted = [_EpochFold(z_per_epoch) for _ in range(n_epochs)], None
    while rngs := list(itertools.islice(streams, size)):
        try:
            # after an exhaustion, later batches only look for an earlier one,
            # folding into throwaway folds that keep no z
            _run_batch(spec, schedule, window, n0, rngs, folds if exhausted is None else
                       [_EpochFold(0) for _ in range(exhausted - 1)])
        except WindowExhaustedError as err:
            exhausted = err.epoch
    if exhausted is not None:
        raise WindowExhaustedError(exhausted)
    return [fold.pop() for fold in folds]
