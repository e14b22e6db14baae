import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcplab.config import Boundary, IntervalConfiguration
from hcplab.epoch import StateSpaceError, _simulate_points, run_epoch, segment_gaps
from hcplab.measures import dirac, epoch_pushforward
from hcplab.rates import RateFamily, RateValidityError
from hcplab.sampling import replica_rng
from hcplab.stats import ks_test_discrete, ks_two_sample
from oracles import simulate_points_loop

EAST = RateFamily(1.0, 2.0, 0.0, 1.0)
WEST = RateFamily(1.0, 2.0, 1.0, 0.0)
PASTE_ALL = RateFamily(1.0, 2.0, 1.0, 1.0)


class TestValidateRates:
    """A family is checked when it is built."""

    def test_valid_family(self):
        rates = RateFamily(1.0, 2.0, 0.3, 0.7, linear=True)
        assert np.array_equal(rates.lambda_right([1.0, 1.5]), [0.7, 0.7 * 1.5])

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
            total = rates.lambda_left(d) + rates.lambda_right(d)
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
    def test_blocked_configuration_is_frozen(self, rng):
        cfg = IntervalConfiguration(0.0, np.array([5.0, 5.0, 5.0]), Boundary.LEFT_BOUNDED)
        res = run_epoch(cfg, EAST, rng)
        assert res.log.n_merges == 0
        assert np.array_equal(res.final.lengths, cfg.lengths)

    def test_single_active_merges_once(self, rng):
        cfg = IntervalConfiguration(0.0, np.array([5.0, 1.5, 5.0]), Boundary.LEFT_BOUNDED)
        res = run_epoch(cfg, PASTE_ALL, rng)
        assert res.log.n_merges == 1
        assert res.final.n_intervals == 2

    def test_two_interval_race_probabilities(self):
        # east rates on (1,1): both domains ring erase-left; the order decides
        # whether the first point survives, each order with probability 1/2
        kept = 0
        trials = 30_000
        for r in range(trials):
            cfg = IntervalConfiguration(0.0, np.array([1.0, 1.0]), Boundary.LEFT_BOUNDED)
            res = run_epoch(cfg, EAST, replica_rng(17, r))
            pts = res.surviving_points
            if pts.size == 2:
                assert np.array_equal(pts, [0.0, 2.0])
                kept += 1
            else:
                assert np.array_equal(pts, [2.0])
        assert abs(kept / trials - 0.5) < 3 * math.sqrt(0.25 / trials)

    def test_periodic_final_pmf(self):
        cfg = IntervalConfiguration(0.0, np.ones(30_000), Boundary.PERIODIC)
        res = run_epoch(cfg, RateFamily(1.0, 2.0, 0.5, 0.5), replica_rng(23))
        oracle = epoch_pushforward(dirac(1.0, 64.0), 1.0, 2.0)
        ks = ks_test_discrete(res.final.lengths, oracle, n_bootstrap=100, seed=3)
        assert ks.p_value > 0.01

    def test_state_space_rejection(self, rng):
        cfg = IntervalConfiguration(0.0, np.array([0.5, 1.5]), Boundary.LEFT_BOUNDED)
        with pytest.raises(StateSpaceError):
            run_epoch(cfg, EAST, rng)

    def test_fractional_first_point_only_shifts(self):
        # dyadic lengths add up exactly from 0, not from a fractional first
        # point, whose rounding once put unit lengths below d_min
        for r in range(300):
            rng = np.random.default_rng([72, r])
            lengths = 1.0 + rng.integers(0, 16, size=int(rng.integers(2, 40))) / 8.0
            first = float(rng.normal())
            res = run_epoch(IntervalConfiguration(first, lengths), EAST,
                            replica_rng(72, r))
            ref = run_epoch(IntervalConfiguration(0.0, lengths), EAST,
                            replica_rng(72, r))
            assert res.final.first_point == first + ref.final.first_point
            assert np.array_equal(res.final.lengths, ref.final.lengths)
            assert np.array_equal(res.log.times, ref.log.times)
            assert np.array_equal(res.log.positions, first + ref.log.positions)
            assert np.array_equal(res.surviving_points, first + ref.surviving_points)

    def test_point_set_shrinks_and_log_is_ordered(self, rng):
        cfg = IntervalConfiguration(0.0, np.ones(500), Boundary.LEFT_BOUNDED)
        res = run_epoch(cfg, PASTE_ALL, rng)
        initial_points = set(cfg.first_point + cfg.relative_points())
        assert set(res.surviving_points) <= initial_points
        assert set(res.log.positions) <= initial_points
        assert np.all(np.diff(res.log.times) >= 0)
        assert res.clock == (res.log.times[-1] if res.log.n_merges else 0.0)

    def test_final_lengths_reach_d_max(self, rng):
        cfg = IntervalConfiguration(0.0, 1.0 + rng.random(2000) * 0.9,
                                    Boundary.WINDOW)
        res = run_epoch(cfg, RateFamily(1.0, 2.0, 0.5, 1.0, linear=True), rng)
        assert res.final.lengths.min() >= 2.0 * (1 - 1e-9)

    def test_length_conservation(self, rng):
        lengths = 1.0 + rng.random(1000)
        cfg = IntervalConfiguration(0.0, lengths.copy(), Boundary.PERIODIC)
        res = run_epoch(cfg, PASTE_ALL, rng)
        assert res.final.lengths.sum() == pytest.approx(lengths.sum(), rel=1e-12)

    def test_first_point_immobile_without_right_rate(self):
        for r in range(300):
            cfg = IntervalConfiguration(0.0, np.ones(40), Boundary.LEFT_BOUNDED)
            res = run_epoch(cfg, WEST, replica_rng(29, r))
            assert res.final.first_point == 0.0

    def test_rate_scaling_only_changes_clock(self):
        cfg = IntervalConfiguration(0.0, np.ones(5000), Boundary.PERIODIC)
        res_a = run_epoch(cfg, RateFamily(1.0, 2.0, 0.4, 0.6), replica_rng(37))
        res_b = run_epoch(cfg, RateFamily(1.0, 2.0, 2.0, 3.0), replica_rng(37))
        assert np.array_equal(res_a.final.lengths, res_b.final.lengths)
        assert res_a.clock == pytest.approx(5.0 * res_b.clock, rel=1e-12)
        # and across seeds the law itself is unchanged
        res_c = run_epoch(cfg, RateFamily(1.0, 2.0, 2.0, 3.0), replica_rng(38))
        assert ks_two_sample(res_a.final.lengths, res_c.final.lengths).p_value > 0.01


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
            cfg = IntervalConfiguration(0.0, np.array([3.0, self.BELOW_MIN, 3.0]))
            res = run_epoch(cfg, rates, replica_rng(81, r))
            assert res.log.n_merges == 1
            assert res.final.n_intervals == 2

    @pytest.mark.parametrize("rates", RATES)
    def test_just_below_d_max_is_absorbed(self, rates):
        cfg = IntervalConfiguration(0.0, np.array([3.0, self.BELOW_MAX, 3.0]))
        res = run_epoch(cfg, rates, replica_rng(82))
        assert res.log.n_merges == 0
        assert np.array_equal(res.final.lengths, cfg.lengths)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_segments_match_event_loop(self, periodic):
        # segments mixing gaps a few ulps around both thresholds with plain
        # ones, against the event-loop oracle segment by segment
        boundary = Boundary.PERIODIC if periodic else Boundary.LEFT_BOUNDED
        gen = np.random.default_rng(83)
        near = np.array([1.0, 2.0, 3.0]) + np.arange(-6, 7)[:, None] * 2.0**-52
        configs = [IntervalConfiguration(0.0, gen.choice(near.ravel(), size=40), boundary)
                   for _ in range(6)]
        points = np.concatenate([c.relative_points() for c in configs])
        starts = np.cumsum([0] + [c.relative_points().size for c in configs[:-1]])
        circ = np.array([c.circumference for c in configs]) if periodic else None
        gaps = segment_gaps(points, starts, boundary, circ)[0]
        rates = PASTE_ALL
        alive = _simulate_points(gaps, starts, rates,
                                 [replica_rng(84, r) for r in range(6)])[0]
        ref = [simulate_points_loop(c.relative_points(), periodic,
                                    c.circumference if periodic else None, rates,
                                    replica_rng(84, r))[0] for r, c in enumerate(configs)]
        assert np.array_equal(alive, np.concatenate(ref))
        assert not alive.all()


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
        segments.append((IntervalConfiguration(0.0, lengths, Boundary.PERIODIC if periodic
                                               else Boundary.LEFT_BOUNDED), clocks, coins))
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
        points = np.concatenate([cfg.relative_points() for cfg, _, _ in segments])
        counts = [cfg.relative_points().size for cfg, _, _ in segments]
        starts = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(np.intp)
        circ = np.array([cfg.circumference for cfg, _, _ in segments]) if periodic else None
        gaps = segment_gaps(points, starts, segments[0][0].boundary, circ)[0]
        alive, times, victims, _ = _simulate_points(
            gaps, starts, rates, [ScriptedRng(c, u) for _, c, u in segments])
        ref_alive = []
        ends = np.append(starts[1:], points.size)
        for (cfg, clocks, coins), a, b in zip(segments, starts, ends):
            ref = simulate_points_loop(cfg.relative_points(), periodic,
                                       cfg.circumference if periodic else None,
                                       rates, ScriptedRng(clocks, coins))
            ref_alive.append(ref[0])
            own = (victims >= a) & (victims < b)
            assert int(own.sum()) == ref[1].n_merges
            assert float(times[own].max(initial=0.0)) == ref[2]
            res = run_epoch(cfg, rates, ScriptedRng(clocks, coins))
            assert np.array_equal(res.log.times, ref[1].times)
            assert np.array_equal(res.log.positions, ref[1].positions)
            assert np.array_equal(res.log.directions, ref[1].directions)
            assert res.clock == ref[2]
        assert np.array_equal(alive, np.concatenate(ref_alive))


class TestResolverMemory:
    def test_peak_bytes_per_point(self):
        # one call on 64 left-bounded segments of 1,024 unit domains, all
        # active: the traced peak, result included, per point of the input
        n_segments, n_domains = 64, 1024
        points = np.tile(np.arange(n_domains + 1, dtype=float), n_segments)
        starts = np.arange(n_segments) * (n_domains + 1)
        gaps = segment_gaps(points, starts, Boundary.LEFT_BOUNDED)[0]
        rngs = [replica_rng(53, r) for r in range(n_segments)]
        tracemalloc.start()
        try:
            alive = _simulate_points(gaps, starts, PASTE_ALL, rngs)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < np.count_nonzero(~alive) < n_segments * n_domains
        assert peak / points.size <= 64, peak / points.size


class TestEpochObservables:
    """The observables read from one epoch's result: the first point's
    displacement and the survival of the point at the origin."""

    def test_identity_epoch(self, rng):
        cfg = IntervalConfiguration(0.0, np.array([5.0, 6.0]), Boundary.LEFT_BOUNDED)
        res = run_epoch(cfg, EAST, rng)
        assert res.final.first_point - cfg.first_point == 0.0
        assert 0.0 in res.surviving_points

    def test_race_survival_frequency(self):
        survived = 0
        trials = 20_000
        for r in range(trials):
            cfg = IntervalConfiguration(0.0, np.array([1.0, 1.0]), Boundary.LEFT_BOUNDED)
            res = run_epoch(cfg, EAST, replica_rng(43, r))
            survived += 0.0 in res.surviving_points
        assert abs(survived / trials - 0.5) < 3 * math.sqrt(0.25 / trials)
