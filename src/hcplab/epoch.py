"""One coalescence epoch, run to its absorbing state by an epoch resolver.

Because a merged domain is never active again within an epoch (assumption
(A2)), every clock that will ever ring is known at epoch start: one
exponential clock per initially active domain, plus one direction coin.  A
ring on domain i (points i, i+1) merges unless an earlier ring that merged
erased one of its points, and only domain i-1 (erasing point i) and domain
i+1 (erasing point i+1) can.  The resolver marks these threats between
neighbouring rings and iterates "a ring merges unless a ring that threatens it
merges" to its fixed point.  Earlier means lower (time, domain index), so
ties go to the lower index; with a fixed seed an epoch is reproducible bit
for bit, and scaling both rate functions by a common constant changes only
the time axis, not the event order.  Point arrays may hold several
configurations back to back (segments), each drawing from its own generator;
no domain borders one of another segment.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .rates import RateFamily


class Boundary(enum.Enum):
    """How the finite representation relates to the underlying infinite process.

    LEFT_BOUNDED : the process really has a leftmost point; the semi-infinite
        domain to its left is never active.  The right end is an open window
        (truncation artifact).
    PERIODIC : intervals live on a circle, the last ending at the first
        point; the first point is a reference marker, there are no edges.
    WINDOW : a two-sided cutout of an unbounded process; inactive sentinel
        domains sit outside both ends, and both edges are artifacts.
    """

    LEFT_BOUNDED = "left_bounded"
    PERIODIC = "periodic"
    WINDOW = "window"


class StateSpaceError(ValueError):
    """Configuration outside the state space of the epoch (length < d_min)."""


def gap_floor(d: float) -> float:
    """The least length that counts as at least ``d``: a merged length is a
    sum, rounded once per addition, so one within a relative 1e-9 of a
    threshold counts as at it."""
    return d * (1 - 1e-9)


def core_ranges(lengths: np.ndarray, bounds: np.ndarray, boundary: Boundary,
                buffer_length: float, shortest: float) -> tuple[np.ndarray, np.ndarray]:
    """(first, size) of the core slots of each segment of a segmented length
    array (segment r is ``lengths[bounds[r]:bounds[r+1]]``, slot k the
    interval right of point k, a non-periodic segment's last slot +inf), no
    length below ``shortest``: the slots at least ``buffer_length`` from
    every truncated edge, which are consecutive.  Periodic segments have no
    edge, left-bounded ones a right edge, windows both."""
    if boundary is Boundary.PERIODIC:
        return bounds[:-1], np.diff(bounds)
    first, last = bounds[:-1], bounds[1:] - 1  # the +inf slot is never core
    # Only the m slots next to an edge can lie within buffer_length of it.
    # Row i holds the i-th slot from each edge, on the array read as a circle
    # (a negative index counts from its end), where the +inf slots stop every
    # walk.
    m = int(min(buffer_length / shortest + 1, np.diff(bounds).max()))
    for edge, step in [(last - 1, -1)] + [(first - lengths.size, 1)] * (boundary is Boundary.WINDOW):
        slot = edge + step * np.arange(m)[:, None]
        dist = np.zeros(slot.shape)  # the lengths between each slot and the edge
        np.cumsum(lengths[slot[:-1]], axis=0, out=dist[1:])
        near = np.count_nonzero(dist < buffer_length, axis=0)
        first, last = (first, last - near) if step < 0 else (first + near, last)
    return first, np.maximum(last - first, 0)


def _simulate_points(gaps: np.ndarray, starts: np.ndarray, rates: RateFamily, rngs):
    """Run one epoch on every segment: segment r draws k standard
    exponentials, then k uniforms, from ``rngs[r]`` for its k active domains
    (the values and generator state of ``exponential(scale=1.0, size=k)``
    then ``random(k)``).  Every segment draws its exponentials before any
    draws its uniforms, into one buffer.  Returns the alive mask of the points.
    Indices are int32: a call holds one batch of at most 2^16 points or one
    replica within ``hcp.check_window``, at most 4,915,201."""
    d_min = gap_floor(rates.d_min)
    if gaps.min() < d_min:
        raise StateSpaceError(
            f"interval of length {gaps.min()} below d_min={rates.d_min}")
    active = (gaps >= d_min) & (gaps < rates.d_max * (1 - 1e-9))
    slots = active.nonzero()[0].astype(np.int32)       # the rings, in slot order
    n = slots.size
    # the rates' scale: a scalar for constant families, so that no per-ring
    # rate array exists, and d / d_min for linear ones (a gap just below d_min
    # rings at the rate of d_min).  Dividing by a scalar gives the same bits
    # as dividing by an array holding it.  Both coefficients are divided by
    # 2^e, which puts the larger in [1/2, 1): no rate sum overflows, and
    # wherever the unscaled rates and times were finite and normal, every
    # time moves by 2^e exactly and every erase-left chance keeps its bits.
    e = math.frexp(max(rates.left, rates.right))[1]
    s = np.maximum(gaps[slots], rates.d_min) / rates.d_min if rates.linear else 1.0
    lam_r = math.ldexp(rates.right, -e) * s
    lam = math.ldexp(rates.left, -e) * s + lam_r
    del s
    bounds = slots.searchsorted(starts.astype(np.int32)).tolist() + [n]  # segment r's rings
    draws = np.empty(n)
    segments = [draws[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    for rng, out in zip(rngs, segments):
        rng.standard_exponential(out=out)
    # standard exponentials divided by the rates: scaling every rate by a
    # common constant rescales the time axis without reordering any event.
    # Only their order is kept, so the buffer then takes the uniforms.
    draws /= lam
    ahead = draws[:-1] <= draws[1:]     # ring i rings before ring i + 1 (ties: lower index)
    # Rings i and i + 1 share a point when their slots are adjacent, except
    # across a periodic segment's end: only such a segment rings on its last
    # slot, whose domain ends at the segment's first point.  That wrap ring
    # pairs with the segment's first ring, unless it is that ring.
    wrap = active[np.append(starts[1:], gaps.size) - 1].nonzero()[0]
    if wrap.size:
        ring_bounds = np.array(bounds, dtype=np.int32)
        last, first = ring_bounds[wrap + 1] - 1, ring_bounds[wrap]
        closed = (slots[first] == starts[wrap]) & (first != last)
        wrap_ahead = draws[last[closed]] < draws[first[closed]]  # first < last wins a tie
    for rng, out in zip(rngs, segments):
        rng.random(out=out)
    lam_r /= lam  # the chance that a ring erases its left point
    erase_left = draws < lam_r
    del lam, lam_r, draws, segments, out

    victims = slots + ~erase_left
    pair = slots[1:] == slots[:-1] + 1
    src = dst = wrap        # wrap pairs in which ring src erases a point of ring dst first
    if wrap.size:
        victims[last] = np.where(erase_left[last], slots[last], starts[wrap])
        pair[last[last < n - 1]] = False
        last, first = last[closed], first[closed]
        hit = np.where(wrap_ahead, ~erase_left[last], erase_left[first])
        src = np.where(wrap_ahead, last, first)[hit]
        dst = np.where(wrap_ahead, first, last)[hit]
    from_left = pair & ahead & ~erase_left[:-1]        # i erases i + 1's left end first
    from_right = pair & erase_left[1:] & ~ahead        # i + 1 erases i's right end first
    # A ring merges unless a ring that erases one of its points first merges.
    # Those threats run from earlier to later rings, so they form no cycle,
    # and iterating from "every ring merges" fixes one more link of the
    # longest chain of threats each round.
    merged = np.ones(n, dtype=bool)
    while True:
        lost = np.zeros(n, dtype=bool)
        lost[1:] = from_left & merged[:-1]
        lost[:-1] |= from_right & merged[1:]
        lost[dst] |= merged[src]
        if not (lost == merged).any():                 # merged == ~lost: the fixed point
            break
        merged = ~lost
    alive = np.ones(gaps.size, dtype=bool)
    alive[victims[merged]] = False
    return alive
