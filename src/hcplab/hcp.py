"""Chain one-epoch runs into the hierarchical process and collect observables.

Observables are recorded at each epoch START (the state produced by the
previous epoch), matching the interval laws computed by the measure
analytics.  Point identity is preserved exactly: coordinates are carried
through untouched, so "the first point never moved" is a float equality.

One engine runs 1 or R replicas as one segmented point array: one gap pass
and one resolver call per batch and epoch.  A batch is drawn straight into
one (replicas x intervals) array of lengths, checked once, whose row-wise
cumsum gives every replica's points.  Replica r draws from its own stream
only, in the same order whatever batch it runs in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .epoch import Boundary, StateSpaceError, _simulate_points, gap_floor, segment_gaps
from .sampling import RenewalSpec, check_lengths, draw_spec, replica_rngs
from .schedule import EpochSchedule

# Replicas are batched while their initial point count stays under this.  A
# batch peaks at about 65 traced bytes per point when every domain is active.
# With batch draws, 2^17 was no faster than 2^16 for 64-interval replicas
# (5,000 of them: 0.27 s either way) or 8192-interval ones (acceptance
# criterion 5: 14.6 against 14.8 s), and 2^15 was slower on both (0.28 and
# 17.2 s).
_BATCH_POINTS = 1 << 16
# Initial intervals per replica: 2 GiB at the 64 bytes per point that the
# resolver's memory test guards.  A larger window fails before it is drawn.
_MAX_INTERVALS = (2 << 30) // 64
# A target_core window's pilot: its initial intervals, and the factor on its estimate.
_PILOT_INTERVALS = 4096
_PILOT_SAFETY = 1.6


class WindowExhaustedError(RuntimeError):
    """The finite window ran out of intervals before the requested epoch."""

    def __init__(self, epoch: int):
        super().__init__(f"window exhausted at epoch {epoch}; enlarge the initial window")
        self.epoch = epoch


class WindowTooLargeError(ValueError):
    """A replica's initial window is above ``_MAX_INTERVALS`` intervals, or
    its lengths sum past the float range."""

    def __init__(self, n_intervals: int, why: str = f"above the budget of {_MAX_INTERVALS} "
                                                    "(2 GiB at 64 bytes per point)"):
        super().__init__(f"{n_intervals} initial intervals per replica, {why}")
        self.n_intervals = n_intervals


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
    merges_prior: np.ndarray
    n_intervals: np.ndarray
    core_sizes: np.ndarray


_ARRAY_FIELDS = [f.name for f in fields(EpochSummary)[3:]]


def _concat(parts) -> EpochSummary:
    strides = {p.z_stride for p in parts}
    if len(strides) > 1:
        raise ValueError(f"cannot pool z samples held at strides {sorted(strides)}")
    return EpochSummary(parts[0].epoch, parts[0].d_n, strides.pop(),
                        *(np.concatenate([getattr(p, name) for p in parts])
                          for name in _ARRAY_FIELDS))


def _held(core_sizes: np.ndarray, stride: int) -> int:
    """How many core z the replicas keep at ``stride`` > 0."""
    return int((-(-core_sizes // stride)).sum())


def _restride(part: EpochSummary, stride: int) -> EpochSummary:
    """``part`` with its z held at ``stride``, a multiple of its own stride
    (or 0).  The kept values are copied, so the batch array is not pinned."""
    if stride == part.z_stride:
        return part
    if stride == 0:
        return replace(part, z_stride=0, z_samples=np.empty(0))
    held = -(-part.core_sizes // part.z_stride)  # per replica
    index = np.arange(part.z_samples.size) - np.repeat(np.cumsum(held) - held, held)
    return replace(part, z_stride=stride,
                   z_samples=part.z_samples[index % (stride // part.z_stride) == 0])


class _EpochFold:
    """One epoch's summary, folded in batch by batch.

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

    def add(self, part: EpochSummary) -> None:
        if self.keep is None:
            self.parts.append(part)
            return
        self.nonempty += int(np.count_nonzero(part.core_sizes))
        stride = self.stride
        if self.keep < max(self.nonempty, 1):
            stride, self.held = 0, 0
        else:
            self.held += _held(part.core_sizes, stride)
            while self.held > self.keep:
                stride *= 2
                self.held = sum(_held(p.core_sizes, stride) for p in (*self.parts, part))
        if stride != self.stride:
            self.parts = [_restride(p, stride) for p in self.parts]
            self.stride = stride
        self.parts.append(_restride(part, stride))

    def pop(self) -> EpochSummary:
        """The pooled summary; the fold lets go of its parts."""
        parts, self.parts = self.parts, []
        return _concat(parts)


def _pilot_initial_count(spec, schedule, n_epochs, policy, rng) -> int:
    """Size the window from a pilot run: survivors-per-initial ratio plus the
    interval cost of the edge buffers."""
    pilot_n = _PILOT_INTERVALS
    for _ in range(4):
        try:
            summaries = run_hcp(spec, schedule, n_epochs,
                                WindowPolicy(n_intervals=pilot_n,
                                             buffer_factor=policy.buffer_factor),
                                rng.spawn(1)[0])
        except WindowExhaustedError:
            pilot_n *= 4
            continue
        final = summaries[-1]
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


def _run_batch(batch, boundary: Boundary, schedule: EpochSchedule, n_epochs: int,
               window: WindowPolicy) -> list[EpochSummary]:
    """Run the replicas of ``batch`` (see ``_stack``) as one segmented point
    array."""
    rngs, shift, rows, circumference, marked_idx = batch
    periodic = boundary is Boundary.PERIODIC
    n_replicas, width = rows.shape
    points = rows.reshape(-1)
    counts = np.full(n_replicas, width)
    starts = np.arange(0, points.size, width)
    marked = np.zeros(points.size, dtype=bool)  # the origin for origin-containing specs
    marked[starts + marked_idx] = True

    summaries = []
    merges_prior = np.zeros(n_replicas, dtype=np.int64)
    buffer_len = 0.0
    for n in range(1, n_epochs + 1):
        d_n = schedule.d(n)
        buffer_len += window.buffer_factor * d_n
        if counts.min() < (1 if periodic else 2):
            raise WindowExhaustedError(n)
        gaps, core = segment_gaps(points, starts, boundary, circumference, buffer_len)
        shortest = float(gaps.min())
        if shortest < gap_floor(d_n):
            if n == 1:  # the initial law has mass below d(1)
                raise StateSpaceError(f"initial interval {shortest!r} below d(1) = {d_n!r}")
            raise AssertionError(  # a later epoch starts from an absorbing state
                f"epoch {n} start has interval {shortest} below d({n})={d_n}")
        summaries.append(EpochSummary(
            epoch=n,
            d_n=d_n,
            z_stride=1,
            z_samples=gaps[core] / d_n,
            y=(points[starts] + shift) / d_n,
            first_point_survived=points[starts] == 0.0,
            origin_alive=np.logical_or.reduceat(marked, starts),
            merges_prior=merges_prior,
            n_intervals=counts if periodic else counts - 1,
            core_sizes=np.add.reduceat(core, starts, dtype=np.int64),
        ))
        if n < n_epochs:
            alive = _simulate_points(gaps, starts, schedule.rates_for(n), rngs)
            points, marked = points[alive], marked[alive]
            survivors = np.add.reduceat(alive, starts, dtype=np.int64)
            merges_prior, counts = counts - survivors, survivors
            starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    return summaries


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
    """Run one replica per stream of ``streams``, in batches, folding each
    batch into the per-epoch summaries as it finishes; a window that runs out
    raises for the earliest epoch at which any replica runs out."""
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    schedule.validate(n_epochs)
    folds, exhausted = [_EpochFold(z_per_epoch) for _ in range(n_epochs)], None
    for batch in _batches(spec, schedule, n_epochs, window, streams):
        try:
            # after an exhaustion, later batches only look for an earlier one
            summaries = _run_batch(batch, spec.boundary, schedule,
                                   n_epochs if exhausted is None else exhausted - 1, window)
        except WindowExhaustedError as err:
            exhausted, folds = err.epoch, []
            continue
        for fold, summary in zip(folds, summaries):
            fold.add(summary)
    if exhausted is not None:
        raise WindowExhaustedError(exhausted)
    return [fold.pop() for fold in folds]


def _batches(spec, schedule, n_epochs, window, streams):
    """Draw the replicas in order into batches of fewer than ``_BATCH_POINTS``
    initial points (a larger replica runs alone).  Every replica has the same
    interval count: ``window.n_intervals``, or else one pilot run's, sized
    from the first replica's stream.  A count above ``_MAX_INTERVALS`` raises
    before anything is drawn."""
    draws, n0 = [], window.n_intervals
    for rng in streams:
        if n0 is None:
            n0 = _pilot_initial_count(spec, schedule, n_epochs, window, rng)
        if n0 > _MAX_INTERVALS:
            raise WindowTooLargeError(n0)
        first, lengths, marked_idx = draw_spec(spec, n0, rng)
        width = n0 if spec.boundary is Boundary.PERIODIC else n0 + 1
        if draws and (len(draws) + 1) * width > _BATCH_POINTS:
            yield _stack(spec, draws)
        draws.append((rng, first, lengths, marked_idx))
    yield _stack(spec, draws)


def _stack(spec, draws: list):
    """Empty ``draws``, a list of (rng, first point, lengths, marked index),
    into one batch: (rngs, first points, relative points, circumferences or
    None, marked indices).  The lengths are checked at once, and replica r's
    points relative to its first one are row r of a (replicas x points)
    array, whose sums must stay within the float range."""
    rngs, firsts, lengths, marked_idx = zip(*draws)
    draws.clear()  # the batch runs while the generator holds this list
    lengths = check_lengths(spec, np.array(lengths, dtype=float))
    periodic = spec.boundary is Boundary.PERIODIC
    n_replicas, n_intervals = lengths.shape
    # coordinates anchored at each initial first point, which is then exactly
    # 0.0: lattice gaps stay exact and point identity is plain float equality.
    # The row-wise cumsum adds in the order of each row's own cumsum.
    rows = np.zeros((n_replicas, n_intervals if periodic else n_intervals + 1))
    with np.errstate(over="ignore"):  # an overflow is refused below
        np.cumsum(lengths[:, :rows.shape[1] - 1], axis=1, out=rows[:, 1:])
        circumference = lengths.sum(axis=1) if periodic else None
    if not np.isfinite(rows[:, -1]).all() or periodic and not np.isfinite(circumference).all():
        raise WindowTooLargeError(n_intervals, "whose initial_law lengths sum past the "
                                               "float range")
    return rngs, np.array(firsts), rows, circumference, np.array(marked_idx)
