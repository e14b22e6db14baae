"""Merging-rate families for one epoch and their validity checks.

A domain of length d rings at total rate lambda_left(d) + lambda_right(d).
Orientation contract, used consistently everywhere: a point x is erased at
rate lambda_left(d_x_left) + lambda_right(d_x_right); equivalently a ringing
domain of length d incorporates its LEFT neighbor with probability
lambda_right(d)/lambda(d) and its RIGHT neighbor with probability
lambda_left(d)/lambda(d).  The lambda_right == 0 first-point-immobility
invariant pins this orientation down in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RateFamily:
    """Pair of bounded rate functions with an activity range [d_min, d_max).

    Assumptions checked by :func:`validate_rates`:
      (A1) lambda_left(d) + lambda_right(d) > 0 exactly for d in [d_min, d_max)
      (A2) 2 d_min >= d_max (a merged domain is never active again)
    Both functions must be vectorized over numpy arrays and bounded by
    ``rate_bound``.
    """

    d_min: float
    d_max: float
    lambda_left: object
    lambda_right: object
    rate_bound: float = 1.0


@dataclass(frozen=True)
class RateReport:
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


# Probe lengths inside the activity range [d_min, d_max) of validate_rates.
_PROBES_INSIDE = 33


def validate_rates(rates: RateFamily) -> RateReport:
    """Report-style check of (A1), (A2) and the rate bound on a probe grid:
    ``_PROBES_INSIDE`` lengths across the activity range, d_max and lengths
    above it."""
    violations = []
    if rates.d_min <= 0:
        violations.append(f"d_min must be positive, got {rates.d_min}")
    if rates.d_max <= rates.d_min:
        violations.append(f"need d_min < d_max, got [{rates.d_min}, {rates.d_max})")
    if 2 * rates.d_min < rates.d_max * (1 - 1e-12):
        violations.append(
            f"(A2) violated: 2*d_min = {2 * rates.d_min} < d_max = {rates.d_max}")
    eps = 1e-9 * (rates.d_max - rates.d_min)
    inside = np.linspace(rates.d_min, rates.d_max - eps, _PROBES_INSIDE)
    outside = np.array([rates.d_max, rates.d_max + eps,
                        1.5 * rates.d_max, 10 * rates.d_max])
    grid = np.concatenate((inside, outside))
    grid = grid[grid >= rates.d_min]
    if grid.size:
        left = np.asarray(rates.lambda_left(grid), dtype=float)
        right = np.asarray(rates.lambda_right(grid), dtype=float)
        total = left + right
        active = grid < rates.d_max
        dead = active & ~(total > 0)  # a NaN rate is no positive rate
        for d, t in zip(grid[dead], total[dead]):
            violations.append(f"(A1) violated: total rate {t} at active length {d}")
        leaky = ~active & (total != 0)
        for d, t in zip(grid[leaky], total[leaky]):
            violations.append(f"(A1) violated: nonzero rate {t} at inactive length {d}")
        if (left < 0).any() or (right < 0).any():
            violations.append("negative rate on the probe grid")
        too_big = np.maximum(left, right) > rates.rate_bound * (1 + 1e-12)
        if np.any(too_big):
            violations.append(
                f"rate exceeds declared bound {rates.rate_bound} at length "
                f"{grid[too_big][0]}")
    return RateReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaskedRate:
    """Rate vanishing outside [d_min, d_max); constant or linear in d inside."""

    coef: float
    d_min: float
    d_max: float
    linear: bool = False

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        base = self.coef * (d / self.d_min) if self.linear else self.coef
        return np.where((d >= self.d_min) & (d < self.d_max), base, 0.0)


def constant_rates(d_min: float, d_max: float, left: float = 0.0,
                   right: float = 1.0) -> RateFamily:
    """Constant rates on the activity range; zero outside."""
    bound = max(left, right, 1e-300)
    return RateFamily(d_min, d_max,
                      MaskedRate(left, d_min, d_max),
                      MaskedRate(right, d_min, d_max),
                      rate_bound=bound)


def linear_rates(d_min: float, d_max: float, left: float = 0.0,
                 right: float = 1.0) -> RateFamily:
    """Rates growing linearly in d/d_min on the activity range."""
    bound = max(left, right, 1e-300) * (d_max / d_min)
    return RateFamily(d_min, d_max,
                      MaskedRate(left, d_min, d_max, linear=True),
                      MaskedRate(right, d_min, d_max, linear=True),
                      rate_bound=bound)


def east_rates(d_min: float, d_max: float) -> RateFamily:
    """Active domains incorporate only their left neighbor, at rate one
    (gamma = lambda_left/lambda_right = 0)."""
    return constant_rates(d_min, d_max, left=0.0, right=1.0)


def west_rates(d_min: float, d_max: float) -> RateFamily:
    """Mirror of :func:`east_rates`: lambda_right == 0, first point immobile."""
    return constant_rates(d_min, d_max, left=1.0, right=0.0)


def paste_all_rates(d_min: float, d_max: float) -> RateFamily:
    """Left/right incorporation both at rate one (gamma = 1)."""
    return constant_rates(d_min, d_max, left=1.0, right=1.0)
