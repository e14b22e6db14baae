"""Epoch schedules: activity thresholds plus the rate coefficients of every
epoch."""

from __future__ import annotations

from dataclasses import dataclass, field

from .rates import RateFamily, RateValidityError


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


@dataclass(frozen=True)
class EpochSchedule:
    """Thresholds d(1) < d(2) < ... and the rate coefficients every epoch
    uses: epoch n runs the family ``RateFamily(d(n), d(n + 1), left, right,
    linear)``."""

    thresholds: object = field(default_factory=GeometricThresholds)
    left: float = 0.0
    right: float = 1.0
    linear: bool = False

    @property
    def gamma(self) -> float | None:
        """lambda_left / lambda_right, fixed by the coefficients (first-point
        and survival laws need it); None when lambda_right is 0."""
        return self.left / self.right if self.right > 0 else None

    def d(self, n: int) -> float:
        return float(self.thresholds(n))

    def rates_for(self, n: int) -> RateFamily:
        return RateFamily(self.d(n), self.d(n + 1), self.left, self.right, self.linear)

    def validate(self, n_epochs: int) -> None:
        """Build every epoch's rate family, which checks d(n) < d(n + 1), (A1) and (A2)."""
        for n in range(1, n_epochs + 1):
            try:
                self.rates_for(n)
            except RateValidityError as exc:
                raise ScheduleError(f"epoch {n}: {exc}") from None


def east_schedule(a: float = 2.0) -> EpochSchedule:
    """Geometric thresholds with left-only incorporation at rate one."""
    if not 1.0 < a <= 2.0:
        raise ScheduleError("geometric ratio must lie in (1, 2]")
    return EpochSchedule(GeometricThresholds(a))
