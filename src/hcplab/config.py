"""Finite realizations of simple point processes as ordered interval data."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Boundary(enum.Enum):
    """How the finite representation relates to the underlying infinite process.

    LEFT_BOUNDED : the process really has a leftmost point; the semi-infinite
        domain to its left is never active.  The right end is an open window
        (truncation artifact).
    PERIODIC : intervals live on a circle whose circumference is the sum of
        the lengths; first_point is a reference marker, there are no edges.
    WINDOW : a two-sided cutout of an unbounded process; inactive sentinel
        domains sit outside both ends, and both edges are artifacts.
    """

    LEFT_BOUNDED = "left_bounded"
    PERIODIC = "periodic"
    WINDOW = "window"


@dataclass(frozen=True)
class IntervalConfiguration:
    """Ordered finite realization of a simple point process.

    first_point : coordinate of the leftmost represented point
    lengths     : positive gaps between consecutive points
    boundary    : how the edges are interpreted (see :class:`Boundary`)
    """

    first_point: float
    lengths: np.ndarray
    boundary: Boundary = Boundary.LEFT_BOUNDED

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=np.float64)
        if lengths.ndim != 1:
            raise ValueError("lengths must be a 1-D sequence")
        if lengths.size and not np.all(lengths > 0):
            raise ValueError("all interval lengths must be strictly positive")
        object.__setattr__(self, "lengths", lengths)

    @property
    def n_intervals(self) -> int:
        return int(self.lengths.size)

    @property
    def circumference(self) -> float:
        if self.boundary is not Boundary.PERIODIC:
            raise ValueError("circumference is defined for periodic configurations")
        return float(self.lengths.sum())

    def relative_points(self) -> np.ndarray:
        """Points with the first one pinned at exactly 0.

        Preferred for gap arithmetic: adding a fractional first_point to a
        lattice cumsum perturbs consecutive differences by the rounding of
        the large sums, while the relative coordinates keep them exact.
        """
        if self.boundary is Boundary.PERIODIC:
            return np.concatenate(([0.0], np.cumsum(self.lengths[:-1])))
        return np.concatenate(([0.0], np.cumsum(self.lengths)))
