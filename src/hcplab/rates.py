"""Merging-rate families for one epoch: plain coefficient data.

A domain of length d rings at total rate lambda_left(d) + lambda_right(d).
Orientation contract, used consistently everywhere: a point x is erased at
rate lambda_left(d_x_left) + lambda_right(d_x_right); equivalently a ringing
domain of length d incorporates its LEFT neighbor with probability
lambda_right(d)/lambda(d) and its RIGHT neighbor with probability
lambda_left(d)/lambda(d).  The lambda_right == 0 first-point-immobility
invariant pins this orientation down in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class RateValidityError(ValueError):
    """A rate family breaks its assumptions (A1) or (A2)."""


@dataclass(frozen=True)
class RateFamily:
    """lambda_left(d) = left * s(d) and lambda_right(d) = right * s(d) on the
    activity range [d_min, d_max), and 0 outside it, with s(d) = 1 or, when
    ``linear``, d / d_min.

    Checked when built:
      (A1) left and right are finite and >= 0, and left + right > 0, so every
           active domain rings;
      (A2) 0 < d_min < d_max <= 2 d_min, so a merged domain is never active
           again.
    """

    d_min: float
    d_max: float
    left: float
    right: float
    linear: bool = False

    def __post_init__(self):
        for name in ("left", "right"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails
                raise RateValidityError(
                    f"{name} coefficient must be a finite number >= 0, got {value!r}")
        if not self.left + self.right > 0:
            raise RateValidityError(
                f"(A1) violated: left + right must be positive, got "
                f"{self.left!r} + {self.right!r}")
        if not self.d_min > 0:
            raise RateValidityError(f"d_min must be positive, got {self.d_min!r}")
        if not self.d_max > self.d_min:
            raise RateValidityError(
                f"need d_min < d_max, got [{self.d_min!r}, {self.d_max!r})")
        if 2 * self.d_min < self.d_max * (1 - 1e-12):
            raise RateValidityError(
                f"(A2) violated: 2*d_min = {2 * self.d_min} < d_max = {self.d_max}")
