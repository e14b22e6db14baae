"""The memory budget: one check, made before the allocation it guards, and
the bytes per unit each call site states, held to its traced peak."""

import math
import tracemalloc

import numpy as np
import pytest

from hcplab import acceptance, budget
from hcplab.budget import BudgetError, need
from hcplab.hcp import WindowPolicy, replicate
from hcplab.laws import DiracLaw, GeometricLaw
from hcplab.measures import AtomicMeasure, convolve, epoch_pushforward, iterate_hcp_measures
from hcplab.sampling import LeftBounded
from hcplab.schedule import EpochSchedule
from hcplab.transport import deconvolve_m, default_c0_grid, figb_ratios

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
    # per replica and epoch, and one epoch more, of narrow replicas whose
    # record outweighs a batch
    "record": ("the record of", lambda: LeftBounded(DiracLaw(1.0)), lambda spec: replicate(
        spec, EpochSchedule(), 2, 100_000, 3, WindowPolicy(n_intervals=16), z_per_epoch=0)),
    "dense convolution": ("dense convolution", lambda: _lattice(1 << 17),
                          lambda m: convolve(m, m)),
    "outer convolution": ("off-lattice", lambda: _irrational(512), lambda m: convolve(m, m)),
    "series": ("pushforward series", lambda: _readme_law_at(8),
               lambda mu: epoch_pushforward(mu, EAST(8), EAST(9))),
    # one row of the grid at a time, per atom of the row and of the weights
    "c0 block": ("transform grid", lambda: GeometricLaw(1e-6).atomic(10_000.0).normalized(),
                 lambda m: m.transform_derivative(default_c0_grid())),
    # per site of the ring the solve holds, not of the whole lattice
    "figb lattice": ("transport lattice", lambda: EAST,
                     lambda d: figb_ratios([0.5], 14, 10.0, 1 / 16, d)),
    "geometric atoms": ("geometric law", lambda: GeometricLaw(1e-6),
                        lambda law: law.atomic(100_000.0)),
    # the README law inverted on its 51,200 cells through the ring, m included
    "inversion lattice": ("inversion lattice", lambda: GeometricLaw(0.1).atomic(51200.0),
                          lambda p: deconvolve_m(p, 51200.0)),
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


class TestRecord:
    """The per-replica record and its kept z are asked for before any
    replica is drawn."""

    def test_refused_before_any_draw(self, monkeypatch):
        # 3 x 20,000 units at 32 bytes pass a budget of 1 MiB
        monkeypatch.setattr(budget, "BUDGET_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=r"^the record of 20000 replicas and 0 kept z "
                               r"per epoch over 2 epochs needs 1\.831 MiB .*; lower replicas "):
                replicate(LeftBounded(DiracLaw(1.0)), EpochSchedule(), 2, 20_000, 3,
                          WindowPolicy(n_intervals=64), z_per_epoch=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, peak

    def test_kept_z_count_at_most_one_per_initial_interval(self, monkeypatch):
        asked, check = [], budget.need

        def spy(n_units, bytes_per_unit, what, knobs):
            check(n_units, bytes_per_unit, what, knobs)
            asked.append(what)

        monkeypatch.setattr(budget, "need", spy)
        replicate(LeftBounded(DiracLaw(1.0)), EpochSchedule(), 2, 3, 3,
                  WindowPolicy(n_intervals=64), z_per_epoch=10**12)
        assert asked[0] == "the record of 3 replicas and 192 kept z per epoch over 2 epochs"

    def test_validate_scale_checks_criterion_4(self, monkeypatch):
        # the window of criteria 3 and 6 is checked first; without it, the
        # record of criterion 4's replicas names validate.scale
        monkeypatch.setattr(acceptance, "check_window", lambda *args: None)
        acceptance.check_scale(19.0)
        with pytest.raises(BudgetError, match=r"^the record of 2500000\.0 replicas .*; lower "
                           r"validate\.scale, which scales the replicas of criterion 4$"):
            acceptance.check_scale(25.0)


class TestFigbRing:
    """reproduce-figb asks for the ring its solve holds, sized before it is
    allocated: at the default figb.x and figb.lattice, horizon 19's ring of
    19.25 M sites (147 MiB at 8 bytes) fits, and horizon 20's does not."""

    def test_horizon_19_passes_the_check(self, monkeypatch):
        class Checked(Exception):
            pass

        def spy(n_units, bytes_per_unit, what, knobs):
            need(n_units, bytes_per_unit, what, knobs)
            raise Checked(n_units)  # before the ring is allocated

        monkeypatch.setattr(budget, "need", spy)
        with pytest.raises(Checked) as stop:
            figb_ratios([0.1, 0.5, 0.8], 19, 10.0, 1 / 16, EAST)
        assert stop.value.args == (19_251_200,)

    def test_horizon_20_refused_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=r"^the transport lattice of 5\.231e\+07 sites "
                               r"per law held, of 9\.227e\+07 in all needs .*; lower "
                               r"figb\.horizon or figb\.x, or coarsen figb\.lattice$"):
                figb_ratios([0.1, 0.5, 0.8], 20, 10.0, 1 / 16, EAST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


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
