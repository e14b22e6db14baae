"""How a finite point array relates to the infinite process it represents."""

import enum


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
