import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcplab.epoch import Boundary, StateSpaceError, _simulate_points, core_ranges
from hcplab.hcp import WindowPolicy, run_hcp
from hcplab.laws import AtomicLaw
from hcplab.measures import AtomicMeasure, dirac, epoch_pushforward
from hcplab.rates import RateFamily, RateValidityError
from hcplab.sampling import LeftBounded, replica_rng
from hcplab.schedule import east_schedule
from hcplab.stats import ks_test_discrete, ks_two_sample
from oracles import rate_values, relative_points, simulate_points_loop

EAST = RateFamily(1.0, 2.0, 0.0, 1.0)
WEST = RateFamily(1.0, 2.0, 1.0, 0.0)
PASTE_ALL = RateFamily(1.0, 2.0, 1.0, 1.0)


def slots(lengths, boundary):
    """The resolver's gaps of one segment, one per point: ``lengths``, then
    +inf for the last point unless periodic."""
    return lengths if boundary is Boundary.PERIODIC else np.append(lengths, np.inf)


def run_one(lengths, rates, rng, boundary=Boundary.LEFT_BOUNDED):
    """The points left after one epoch on one segment: 0 and the points
    ``lengths`` apart after it, through the resolver."""
    lengths = np.asarray(lengths, dtype=float)
    starts = np.zeros(1, dtype=np.intp)
    alive = _simulate_points(slots(lengths, boundary), starts, rates, [rng])
    return relative_points(lengths, boundary)[alive]


def periodic_lengths(points, circumference):
    """The interval lengths of ``points`` on a circle of ``circumference``."""
    return np.diff(points, append=points[0] + circumference)


class TestValidateRates:
    """A family is checked when it is built."""

    def test_valid_family(self):
        rates = RateFamily(1.0, 2.0, 0.3, 0.7, linear=True)
        assert np.array_equal(rate_values(rates, [1.0, 1.5])[1], [0.7, 0.7 * 1.5])

    def test_a2_violation(self):
        with pytest.raises(RateValidityError, match=r"\(A2\) violated"):
            RateFamily(1.0, 3.0, 1.0, 1.0)

    def test_a1_violation_zero_rate_inside(self):
        with pytest.raises(RateValidityError, match="left \\+ right must be positive"):
            RateFamily(1.0, 2.0, 0.0, 0.0)

    def test_a1_violation_active_beyond_range(self):
        # the rates vanish outside [d_min, d_max) by construction
        d = np.array([0.5, 1.0, 2.0 - 1e-9, 2.0, 3.0])
        for rates in (EAST, WEST, PASTE_ALL, RateFamily(1.0, 2.0, 0.5, 1.0, linear=True)):
            total = sum(rate_values(rates, d))
            assert np.array_equal(total > 0, [False, True, True, False, False])

    def test_a1_violation_nan_rate_inside(self):
        for left, right, name in ((math.nan, 1.0, "left"), (1.0, math.nan, "right")):
            with pytest.raises(RateValidityError,
                               match=f"{name} coefficient must be a finite number >= 0, got nan"):
                RateFamily(1.0, 2.0, left, right)

    @pytest.mark.parametrize("value", [-1.0, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["left", "right"])
    def test_bad_coefficient(self, name, value):
        coefficients = {"left": 1.0, "right": 1.0, name: value}
        with pytest.raises(RateValidityError,
                           match=f"{name} coefficient must be a finite number >= 0"):
            RateFamily(1.0, 2.0, **coefficients)

    @pytest.mark.parametrize("d_min, d_max, message", [
        (0.0, 1.0, "d_min must be positive"),
        (-1.0, 1.0, "d_min must be positive"),
        (math.nan, 1.0, "d_min must be positive"),
        (1.0, 1.0, "need d_min < d_max"),
        (1.0, 0.5, "need d_min < d_max"),
        (1.0, math.inf, "(A2) violated"),
    ])
    def test_bad_range(self, d_min, d_max, message):
        with pytest.raises(RateValidityError, match=re.escape(message)):
            RateFamily(d_min, d_max, 0.0, 1.0)


class TestRunEpoch:
    """One epoch on one segment, run through ``run_one``."""

    def test_blocked_configuration_is_frozen(self, rng):
        assert np.array_equal(run_one([5.0, 5.0, 5.0], EAST, rng), [0.0, 5.0, 10.0, 15.0])

    def test_single_active_merges_once(self, rng):
        assert run_one([5.0, 1.5, 5.0], PASTE_ALL, rng).size == 3

    def test_two_interval_race_probabilities(self):
        # east rates on (1,1): both domains ring erase-left; the order decides
        # whether the first point survives, each order with probability 1/2
        kept = 0
        trials = 30_000
        for r in range(trials):
            pts = run_one([1.0, 1.0], EAST, replica_rng(17, r))
            if pts.size == 2:
                assert np.array_equal(pts, [0.0, 2.0])
                kept += 1
            else:
                assert np.array_equal(pts, [2.0])
        assert abs(kept / trials - 0.5) < 3 * math.sqrt(0.25 / trials)

    def test_periodic_final_pmf(self):
        pts = run_one(np.ones(30_000), RateFamily(1.0, 2.0, 0.5, 0.5), replica_rng(23),
                      Boundary.PERIODIC)
        oracle = epoch_pushforward(dirac(1.0, 64.0), 1.0, 2.0)
        ks = ks_test_discrete(periodic_lengths(pts, 30_000.0), oracle, n_bootstrap=100,
                              seed=3)
        assert ks.p_value > 0.01

    def test_state_space_rejection(self, rng):
        with pytest.raises(StateSpaceError):
            run_one([0.5, 1.5], EAST, rng)

    def test_fractional_first_point_only_shifts(self):
        # dyadic lengths add up exactly from 0, not from a fractional first
        # point, whose rounding once put unit lengths below d_min: the engine
        # keeps coordinates relative to the first point
        law = AtomicLaw(AtomicMeasure(1.0 + np.arange(16) / 8.0, np.full(16, 1 / 16), 3.0))
        for r in range(300):
            gen = np.random.default_rng([72, r])
            # at least 8 intervals: leaving one point, which ends a left-bounded
            # window, takes 8 rings in one order out of 8!
            n, first = int(gen.integers(8, 40)), float(gen.normal())
            window = WindowPolicy(n_intervals=n)
            res = run_hcp(LeftBounded(law, first), east_schedule(2.0), 2, window,
                          replica_rng(72, r))[1]
            ref = run_hcp(LeftBounded(law), east_schedule(2.0), 2, window,
                          replica_rng(72, r))[1]
            assert res.y[0] * res.d_n == first + ref.y[0] * ref.d_n  # d(2) = 2 scales exactly
            assert np.array_equal(res.z_samples, ref.z_samples)
            assert np.array_equal(res.first_point_survived, ref.first_point_survived)

    def test_point_set_shrinks(self, rng):
        pts = run_one(np.ones(500), PASTE_ALL, rng)
        assert 0 < pts.size < 501
        assert set(pts) <= set(np.arange(501.0))

    def test_final_lengths_reach_d_max(self, rng):
        pts = run_one(1.0 + rng.random(2000) * 0.9, RateFamily(1.0, 2.0, 0.5, 1.0, linear=True),
                      rng, Boundary.WINDOW)
        assert np.diff(pts).min() >= 2.0 * (1 - 1e-9)

    def test_length_conservation(self, rng):
        lengths = 1.0 + rng.random(1000)
        pts = run_one(lengths, PASTE_ALL, rng, Boundary.PERIODIC)
        final = periodic_lengths(pts, lengths.sum())
        assert final.min() >= 2.0 * (1 - 1e-9)
        assert final.sum() == pytest.approx(lengths.sum(), rel=1e-12)

    def test_first_point_immobile_without_right_rate(self):
        for r in range(300):
            assert run_one(np.ones(40), WEST, replica_rng(29, r))[0] == 0.0

    def test_rate_scaling_only_changes_clock(self):
        # scaling both rates by 5 rescales every clock by 1/5: same merges
        pts_a = run_one(np.ones(5000), RateFamily(1.0, 2.0, 0.4, 0.6), replica_rng(37),
                        Boundary.PERIODIC)
        pts_b = run_one(np.ones(5000), RateFamily(1.0, 2.0, 2.0, 3.0), replica_rng(37),
                        Boundary.PERIODIC)
        assert np.array_equal(pts_a, pts_b)
        # and across seeds the law itself is unchanged
        pts_c = run_one(np.ones(5000), RateFamily(1.0, 2.0, 2.0, 3.0), replica_rng(38),
                        Boundary.PERIODIC)
        assert ks_two_sample(periodic_lengths(pts_a, 5000.0),
                             periodic_lengths(pts_c, 5000.0)).p_value > 0.01


class TestThresholdTolerance:
    """A gap taken from point differences can sit a few ulps off its true
    value: one within a relative 1e-9 of d_min rings, one that close below
    d_max does not."""

    BELOW_MIN = 1.0 - 4 * 2.0**-53  # four ulps below d_min = 1
    BELOW_MAX = 2.0 - 4 * 2.0**-52  # four ulps below d_max = 2
    RATES = [EAST, PASTE_ALL, RateFamily(1.0, 2.0, 0.5, 1.0, linear=True)]

    @pytest.mark.parametrize("rates", RATES)
    def test_just_below_d_min_rings(self, rates):
        for r in range(20):
            assert run_one([3.0, self.BELOW_MIN, 3.0], rates, replica_rng(81, r)).size == 3

    @pytest.mark.parametrize("rates", RATES)
    def test_just_below_d_max_is_absorbed(self, rates):
        assert run_one([3.0, self.BELOW_MAX, 3.0], rates, replica_rng(82)).size == 4

    @pytest.mark.parametrize("periodic", [False, True])
    def test_segments_match_event_loop(self, periodic):
        # segments mixing gaps a few ulps around both thresholds with plain
        # ones, against the event-loop oracle segment by segment
        boundary = Boundary.PERIODIC if periodic else Boundary.LEFT_BOUNDED
        gen = np.random.default_rng(83)
        near = np.array([1.0, 2.0, 3.0]) + np.arange(-6, 7)[:, None] * 2.0**-52
        segments = [gen.choice(near.ravel(), size=40) for _ in range(6)]
        gaps = [slots(lengths, boundary) for lengths in segments]
        starts = np.cumsum([0] + [g.size for g in gaps[:-1]])
        rates = PASTE_ALL
        alive = _simulate_points(np.concatenate(gaps), starts, rates,
                                 [replica_rng(84, r) for r in range(6)])
        ref = [simulate_points_loop(lengths, periodic, rates, replica_rng(84, r))[0]
               for r, lengths in enumerate(segments)]
        assert np.array_equal(alive, np.concatenate(ref))
        assert not alive.all()


class TestCoreRanges:
    """The core slots of a segmented length array against each segment's
    coordinates, for segments shorter and longer than the buffer."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_coordinates(self, data):
        boundary = data.draw(st.sampled_from([Boundary.LEFT_BOUNDED, Boundary.WINDOW]))
        buffer_length = data.draw(st.sampled_from([0.0, 1.0, 2.5, 7.0, 30.0, 1e3]))
        segments = data.draw(st.lists(st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.25, 8.0]),
                                               min_size=1, max_size=40), min_size=1, max_size=6))
        lengths = np.concatenate([slots(np.array(s), boundary) for s in segments])
        bounds = np.cumsum([0] + [len(s) + 1 for s in segments])
        first, size = core_ranges(lengths, bounds, boundary, buffer_length, lengths.min())
        for r, segment in enumerate(segments):
            points = relative_points(np.array(segment), boundary)
            core = points[1:] <= points[-1] - buffer_length
            if boundary is Boundary.WINDOW:
                core &= points[:-1] >= buffer_length
            assert np.array_equal(np.arange(first[r], first[r] + size[r]) - bounds[r],
                                  np.flatnonzero(core))

    def test_periodic_is_all_core(self):
        bounds = np.array([0, 3, 4, 9])
        first, size = core_ranges(np.ones(9), bounds, Boundary.PERIODIC, 50.0, 1.0)
        assert np.array_equal(first, [0, 3, 4]) and np.array_equal(size, [3, 1, 5])


class ScriptedRng:
    """Hands out fixed clock and coin draws, checking the sizes asked for."""

    def __init__(self, clocks, coins):
        self.clocks, self.coins = clocks, coins

    def exponential(self, scale, size):
        assert scale == 1.0 and size == self.clocks.size
        return self.clocks.copy()

    def standard_exponential(self, out):
        assert out.size == self.clocks.size
        out[:] = self.clocks
        return out

    def random(self, size=None, out=None):
        if out is None:
            assert size == self.coins.size
            return self.coins.copy()
        assert out.size == self.coins.size
        out[:] = self.coins
        return out


@st.composite
def scripted_epochs(draw):
    """Segments of 1-200 domains, each active (a length in {1, 1.25, 1.5,
    1.75}, so that a linear family's scale varies) or not (length 3), with
    integer clocks from a small range so that ring times tie often.  One
    segment in ten each is cut to 1 or 2 domains (a periodic segment of one
    domain is its own neighbour, one of two closes a wrap pair), has no active
    domain, or has only even ones before the last, so that no two of its rings
    share a point."""
    periodic = draw(st.booleans())
    n_segments = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 200), min_size=n_segments, max_size=n_segments))
    p_active = draw(st.sampled_from([0.3, 0.7, 1.0]))
    top = draw(st.sampled_from([1, 3, 50]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = []
    for n in sizes:
        kind = gen.choice(["mixed", "tiny", "none", "spaced"], p=[0.7, 0.1, 0.1, 0.1])
        if kind == "tiny":
            n = 1 + n % 2
        lengths = np.where(gen.random(n) < p_active,
                           gen.choice([1.0, 1.25, 1.5, 1.75], size=n), 3.0)
        if kind == "none":
            lengths[:] = 3.0
        elif kind == "spaced":
            lengths[(np.arange(n) % 2 == 1) | (np.arange(n) == n - 1)] = 3.0
        k = int(np.count_nonzero(lengths < 2.0))
        clocks = gen.integers(0, top + 1, size=k).astype(float)
        coins = np.where(gen.random(k) < 0.5, 0.25, 0.75)
        segments.append((lengths, clocks, coins))
    return periodic, segments


class TestResolverOracle:
    """The resolver against the time-sorted event loop it replaced."""

    @pytest.mark.parametrize("rates", [
        EAST, WEST, RateFamily(1.0, 2.0, 0.3, 0.7), RateFamily(1.0, 2.0, 0.5, 1.0, linear=True),
    ], ids=["east", "west", "constant", "linear"])
    @given(case=scripted_epochs())
    @settings(max_examples=200, deadline=None)
    def test_matches_event_loop(self, rates, case):
        periodic, segments = case
        boundary = Boundary.PERIODIC if periodic else Boundary.LEFT_BOUNDED
        gaps = [slots(lengths, boundary) for lengths, _, _ in segments]
        starts = np.cumsum([0] + [g.size for g in gaps[:-1]]).astype(np.intp)
        alive = _simulate_points(np.concatenate(gaps), starts, rates,
                                 [ScriptedRng(c, u) for _, c, u in segments])
        ref = [simulate_points_loop(lengths, periodic, rates, ScriptedRng(clocks, coins))[0]
               for lengths, clocks, coins in segments]
        assert np.array_equal(alive, np.concatenate(ref))


class TestEpochObservables:
    """The observables read from one epoch's result: the first point's
    displacement and the survival of the point at the origin."""

    def test_identity_epoch(self, rng):
        assert np.array_equal(run_one([5.0, 6.0], EAST, rng), [0.0, 5.0, 11.0])

    def test_race_survival_frequency(self):
        survived = 0
        trials = 20_000
        for r in range(trials):
            survived += 0.0 in run_one([1.0, 1.0], EAST, replica_rng(43, r))
        assert abs(survived / trials - 0.5) < 3 * math.sqrt(0.25 / trials)
