"""Epoch schedules: activity thresholds plus a per-epoch rate family."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rates import (RateFamily, constant_rates, east_rates, linear_rates,
                    paste_all_rates, validate_rates, west_rates)


class ScheduleError(ValueError):
    """Invalid epoch schedule (thresholds or rate constraint violated)."""


@dataclass(frozen=True)
class GeometricThresholds:
    """d(n) = a^(n-1) with a in (1, 2]; a = 2 is the classic East scaling."""

    a: float = 2.0

    def __call__(self, n: int) -> float:
        return self.a ** (n - 1)


@dataclass(frozen=True)
class ArithmeticThresholds:
    """d(n) = n, the paste-all scaling."""

    def __call__(self, n: int) -> float:
        return float(n)


@dataclass(frozen=True)
class ExplicitThresholds:
    values: tuple

    def __call__(self, n: int) -> float:
        return float(self.values[n - 1])


_RATE_PRESETS = {
    "east": lambda lo, hi, left, right: east_rates(lo, hi),
    "west": lambda lo, hi, left, right: west_rates(lo, hi),
    "paste_all": lambda lo, hi, left, right: paste_all_rates(lo, hi),
    "constant": lambda lo, hi, left, right: constant_rates(lo, hi, left, right),
    "linear": lambda lo, hi, left, right: linear_rates(lo, hi, left, right),
}


@dataclass(frozen=True)
class PresetRateFactory:
    """Named rate construction per epoch."""

    kind: str = "east"
    left: float = 0.0
    right: float = 1.0

    def __call__(self, n: int, d_min: float, d_max: float) -> RateFamily:
        try:
            builder = _RATE_PRESETS[self.kind]
        except KeyError:
            raise ScheduleError(f"unknown rate preset {self.kind!r}") from None
        return builder(d_min, d_max, self.left, self.right)

    @property
    def gamma(self) -> float | None:
        if self.kind == "east":
            return 0.0
        if self.kind == "paste_all":
            return 1.0
        if self.kind in ("constant", "linear"):
            return self.left / self.right if self.right > 0 else None
        return None  # west: lambda_right == 0, the ratio is unconstrained


@dataclass(frozen=True)
class EpochSchedule:
    """Thresholds d(1) < d(2) < ... and a rate family per epoch.

    ``gamma`` records the constraint lambda_left = gamma * lambda_right when
    the rate factory honors one (first-point and survival laws need it);
    None means unconstrained.
    """

    thresholds: object = field(default_factory=GeometricThresholds)
    rate_factory: object = field(default_factory=PresetRateFactory)
    gamma: float | None = 0.0

    def d(self, n: int) -> float:
        return float(self.thresholds(n))

    def rates_for(self, n: int) -> RateFamily:
        return self.rate_factory(n, self.d(n), self.d(n + 1))

    def validate(self, n_epochs: int) -> None:
        """Check threshold growth, per-epoch (A1)/(A2), and the gamma link."""
        for n in range(1, n_epochs + 1):
            lo, hi = self.d(n), self.d(n + 1)
            if hi <= lo:
                raise ScheduleError(f"thresholds must increase: d({n})={lo}, d({n + 1})={hi}")
            if 2 * lo < hi * (1 - 1e-12):
                raise ScheduleError(
                    f"(A2) violated at epoch {n}: d({n + 1})={hi} > 2 d({n})={2 * lo} "
                    f"(schedule.values in a config)")
            rates = self.rates_for(n)
            report = validate_rates(rates)
            if not report.ok:
                raise ScheduleError(
                    f"epoch {n}: {report.violations[0]}; {len(report.violations)} rate "
                    f"violations in all (schedule.rates, schedule.left and schedule.right "
                    f"in a config)")
            if self.gamma is not None:
                grid = np.linspace(lo, hi * (1 - 1e-9), 17)
                left = np.asarray(rates.lambda_left(grid), dtype=float)
                right = np.asarray(rates.lambda_right(grid), dtype=float)
                if not np.allclose(left, self.gamma * right, rtol=1e-9, atol=1e-12):
                    raise ScheduleError(
                        f"epoch {n}: rates break lambda_left = gamma*lambda_right "
                        f"with gamma={self.gamma} (schedule.gamma in a config)")
        if self.d(n_epochs + 1) <= self.d(1):
            raise ScheduleError("thresholds must diverge")


def east_schedule(a: float = 2.0) -> EpochSchedule:
    """Geometric thresholds with left-only incorporation at rate one."""
    if not 1.0 < a <= 2.0:
        raise ScheduleError("geometric ratio must lie in (1, 2]")
    return EpochSchedule(GeometricThresholds(a), PresetRateFactory("east"), gamma=0.0)


def paste_all_schedule() -> EpochSchedule:
    """Arithmetic thresholds with symmetric incorporation at rate one."""
    return EpochSchedule(ArithmeticThresholds(), PresetRateFactory("paste_all"), gamma=1.0)
