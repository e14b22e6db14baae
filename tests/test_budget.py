"""The memory budget: one check, made before the allocation it guards, and
the bytes per unit each call site states, held to its traced peak."""

import math
import tracemalloc

import numpy as np
import pytest

from hcplab import budget
from hcplab.budget import BudgetError, need
from hcplab.hcp import WindowPolicy, replicate
from hcplab.laws import DiracLaw, GeometricLaw
from hcplab.measures import AtomicMeasure, convolve, epoch_pushforward, iterate_hcp_measures
from hcplab.sampling import LeftBounded
from hcplab.schedule import EpochSchedule
from hcplab.transport import default_c0_grid, figb_ratios

EAST = lambda n: 2.0 ** (n - 1)


class TestNeed:
    def test_refuses_past_the_budget_naming_knobs(self, monkeypatch):
        monkeypatch.setattr(budget, "BUDGET_BYTES", 1 << 20)
        need(1 << 17, 8, "a full budget", "nothing")
        with pytest.raises(BudgetError, match=r"^131073 cells needs 1 MiB at 8 bytes each, above "
                           r"the memory budget of 1 MiB; lower knob\.a or knob\.b$"):
            need((1 << 17) + 1, 8, "131073 cells", "knob.a or knob.b")

    @pytest.mark.parametrize("n_units", [math.inf, math.nan, np.float64(1e307)])
    def test_unbounded_requests_refused(self, n_units):
        with pytest.raises(BudgetError, match="lower knob$"):
            need(n_units, 8, "it", "knob")


def _lattice(n):
    """n unit-spaced atoms, every cell of a convolution with itself occupied."""
    return AtomicMeasure(np.arange(1.0, n + 1), np.full(n, 1.0 / n), 1e12)


def _irrational(n):
    """n atoms off every dyadic lattice, no two pairwise sums coalescing."""
    positions = np.sqrt(2.0) * np.sort(np.random.default_rng(7).uniform(1.0, 2.0, n))
    return AtomicMeasure(positions, np.full(n, 1.0 / n), 1e9)


def _readme_law_at(epoch):
    """The README config's law at the start of ``epoch``."""
    return iterate_hcp_measures(GeometricLaw(0.1).atomic(51200.0), EAST, epoch)[0][-1]


# the text naming the call site, its input (built untraced), and the work
SITES = {
    "window": ("a window of", lambda: LeftBounded(DiracLaw(1.0)), lambda spec: replicate(
        spec, EpochSchedule(left=1.0), 4, 1, 3, WindowPolicy(n_intervals=1 << 17))),
    "dense convolution": ("dense convolution", lambda: _lattice(1 << 17),
                          lambda m: convolve(m, m)),
    "outer convolution": ("off-lattice", lambda: _irrational(512), lambda m: convolve(m, m)),
    "series": ("pushforward series", lambda: _readme_law_at(8),
               lambda mu: epoch_pushforward(mu, EAST(8), EAST(9))),
    "c0 block": ("transform grid", lambda: GeometricLaw(1e-6).atomic(10_000.0).normalized(),
                 lambda m: m.transform_derivative(default_c0_grid())),
    "figb lattice": ("transport lattice", lambda: EAST,
                     lambda d: figb_ratios([0.5], 14, 10.0, 1 / 16, d)),
    "geometric atoms": ("geometric law", lambda: GeometricLaw(1e-6),
                        lambda law: law.atomic(100_000.0)),
}


@pytest.mark.parametrize("site", list(SITES))
def test_peak_within_stated_cost(monkeypatch, site):
    # the traced peak of the work, result included, per unit of the largest
    # request the call site made, against the bytes per unit it states there
    text, make, run = SITES[site]
    arg, asked, check = make(), [], budget.need

    def spy(n_units, bytes_per_unit, what, knobs):
        check(n_units, bytes_per_unit, what, knobs)
        if text in what:
            asked.append((n_units, bytes_per_unit))

    monkeypatch.setattr(budget, "need", spy)
    tracemalloc.start()
    try:
        run(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    units, stated = max(asked)
    assert peak / units <= stated, (peak / units, stated)


class TestPushforwardAsAWhole:
    """A convolution inside ``epoch_pushforward`` counts the series the
    pushforward holds into its request, so the budget bounds the whole."""

    # 64 atoms on [1, 2), off every coarse lattice, as the whole active range:
    # one h * h of 64 x 64 pairs (under l_max 2.5 no third power is formed)
    MU = AtomicMeasure(np.sort(np.random.default_rng(5).uniform(1.0, 2.0, 64)),
                       np.full(64, 1 / 64), 2.5)
    BUDGET = 360_000  # bytes: 87 x 64^2 = 356,352 fit, with the held 128 atoms they do not

    def test_series_and_convolution_fit_alone_not_together(self, monkeypatch):
        asked, check = [], budget.need

        def spy(n_units, bytes_per_unit, what, knobs):
            check(n_units, bytes_per_unit, what, knobs)
            asked.append((what.split(" of ")[0], n_units * bytes_per_unit))

        monkeypatch.setattr(budget, "need", spy)
        epoch_pushforward(self.MU, 1.0, 2.0)
        series = max(b for what, b in asked if what == "the pushforward series")
        pairs = max(b for what, b in asked if what == "the off-lattice convolution")
        assert series <= self.BUDGET and 87 * 64 * 64 <= self.BUDGET < pairs, (series, pairs)

        monkeypatch.setattr(budget, "BUDGET_BYTES", self.BUDGET)
        assert convolve(self.MU, self.MU).n_atoms > 64  # the convolution alone fits
        with pytest.raises(BudgetError, match=r"^the off-lattice convolution of 64 x 64 atoms "
                           r"beside 0\.01099 MiB held needs .* lower analytic\.l_max, now 2\.5$"):
            epoch_pushforward(self.MU, 1.0, 2.0)
