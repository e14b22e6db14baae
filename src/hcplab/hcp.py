"""Chain one-epoch runs into the hierarchical process and collect observables.

Observables are recorded at each epoch START (the state produced by the
previous epoch), matching the interval laws computed by the measure
analytics.  Point identity is preserved exactly: coordinates are carried
through untouched and a replica's points strictly increase, so "the first
point never moved" and "the origin is still there" are float equalities.

One engine runs 1 or R replicas as one segmented point array: one gap pass
and one resolver call per batch and epoch.  A batch is a fixed number of
replicas, drawn and run in one place: straight into one (replicas x
intervals) array of lengths, checked once, whose row-wise cumsum gives every
replica's points.  Replica r draws from its own stream only, in the same
order whatever batch it runs in.  Each epoch's summary goes into that epoch's
fold as soon as it is formed, at the z stride the fold sets first, so a
batch forms only the z that are kept.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import budget
from .epoch import Boundary, StateSpaceError, _simulate_points, gap_floor, segment_gaps
from .sampling import RenewalSpec, check_lengths, draw_spec, replica_rngs
from .schedule import EpochSchedule

# A batch holds as many replicas as fit in this many initial points (at
# least one).  It peaks at about 65 traced bytes per point when every domain
# is active.  With batch draws, 2^17 was no faster than 2^16 for 64-interval
# replicas (5,000 of them: 0.27 s either way) or 8192-interval ones
# (acceptance criterion 5: 14.6 against 14.8 s), and 2^15 was slower on both
# (0.28 and 17.2 s).
_BATCH_POINTS = 1 << 16
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
    budget, before any is drawn: a one-replica batch peaks near 64 bytes a point."""
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


def _thin(z: np.ndarray, core_sizes: np.ndarray, have: int, want: int) -> np.ndarray:
    """``z``, the core z of replicas with ``core_sizes`` at stride ``have``, at
    stride ``want``, a multiple of ``have`` or 0; kept values are copied."""
    if want == have:
        return z
    if want == 0:
        return np.empty(0)
    held = -(-core_sizes // have)  # per replica
    index = np.arange(z.size) - np.repeat(np.cumsum(held) - held, held)
    return z[index % (want // have) == 0]


class _EpochFold:
    """One epoch's summary, folded in batch by batch as each batch forms it.

    Per-replica fields are kept whole.  With ``keep`` = k, the core z of each
    replica is held at stride S, the smallest power of two with
    sum_r ceil(core_r / S) <= k, or at 0 when k is 0 or below the number of
    replicas with a nonempty core.  S only grows as batches arrive, and the
    powers of two nest, so the held values depend on the totals alone.
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
            self.held += int((-(-core_sizes // stride)).sum())
            while self.held > self.keep:
                stride *= 2
                self.held = sum(int((-(-c // stride)).sum())
                                for c in [p.core_sizes for p in self.parts] + [core_sizes])
        if stride != self.stride:
            self.parts = [replace(p, z_stride=stride,
                                  z_samples=_thin(p.z_samples, p.core_sizes, self.stride, stride))
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
        shrink = pilot_n / survivors
        buffered = int(final.n_intervals.sum() - final.core_sizes.sum())
        per_run_overhead = buffered + 4
        need_final = policy.target_core + per_run_overhead
        return int(math.ceil(need_final * shrink * _PILOT_SAFETY))
    raise WindowExhaustedError(n_epochs)


def _draw(spec, n0: int, rngs):
    """Draw ``n0`` intervals from each stream of ``rngs``, checked at once:
    (first points, rows of the points relative to them, circumferences or
    None, origin coordinates).  Sums past the float range are refused."""
    firsts, lengths, marked_idx = zip(*(draw_spec(spec, n0, rng) for rng in rngs))
    lengths = check_lengths(spec, np.array(lengths, dtype=float))
    periodic = spec.boundary is Boundary.PERIODIC
    # anchored at each first point, which is then exactly 0.0, so lattice gaps
    # stay exact; the row-wise cumsum adds in the order of each row's own cumsum
    rows = np.zeros((len(rngs), n0 if periodic else n0 + 1))
    with np.errstate(over="ignore"):  # an overflow is refused below
        np.cumsum(lengths[:, :rows.shape[1] - 1], axis=1, out=rows[:, 1:])
        circumference = lengths.sum(axis=1) if periodic else None
    if not np.isfinite(rows[:, -1]).all() or periodic and not np.isfinite(circumference).all():
        raise WindowTooLargeError(f"{n0} initial intervals per replica, whose initial_law "
                                  "lengths sum past the float range")
    return np.array(firsts), rows, circumference, rows[np.arange(len(rngs)), marked_idx]


def _run_batch(spec, schedule: EpochSchedule, window: WindowPolicy, n0: int, rngs,
               folds: list[_EpochFold]) -> None:
    """Draw one replica per stream of ``rngs``, run them as one segmented array
    for ``len(folds)`` epochs, and fold each epoch's summary into its fold as
    it is formed, with only the z that the fold keeps."""
    shift, rows, circumference, origin = _draw(spec, n0, rngs)
    periodic = spec.boundary is Boundary.PERIODIC
    n_replicas, width = rows.shape
    points = rows.reshape(-1)
    counts = np.full(n_replicas, width)
    starts = np.arange(0, points.size, width)

    buffer_len = 0.0
    for n, fold in enumerate(folds, start=1):
        d_n = schedule.d(n)
        buffer_len += window.buffer_factor * d_n
        if counts.min() < (1 if periodic else 2):
            raise WindowExhaustedError(n)
        gaps, core = segment_gaps(points, starts, spec.boundary, circumference, buffer_len)
        shortest = float(gaps.min())
        if shortest < gap_floor(d_n):
            if n == 1:  # the initial law has mass below d(1)
                raise StateSpaceError(f"initial interval {shortest!r} below d(1) = {d_n!r}")
            raise AssertionError(  # a later epoch starts from an absorbing state
                f"epoch {n} start has interval {shortest} below d({n})={d_n}")
        core_sizes = np.add.reduceat(core, starts, dtype=np.int64)
        stride = fold.admit(core_sizes)
        fold.parts.append(EpochSummary(
            epoch=n,
            d_n=d_n,
            z_stride=stride,
            z_samples=_thin(gaps[core], core_sizes, 1, stride) / d_n if stride else np.empty(0),
            y=(points[starts] + shift) / d_n,
            first_point_survived=points[starts] == 0.0,
            origin_alive=np.logical_or.reduceat(points == np.repeat(origin, counts), starts),
            n_intervals=counts if periodic else counts - 1,
            core_sizes=core_sizes,
        ))
        if n < len(folds):
            alive = _simulate_points(gaps, starts, schedule.rates_for(n), rngs)
            points = points[alive]
            counts = np.add.reduceat(alive, starts, dtype=np.int64)
            starts = np.concatenate(([0], np.cumsum(counts[:-1])))


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
    streams, size = itertools.chain([first], streams), max(1, _BATCH_POINTS // width)
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
