import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcplab import budget, hcp
from hcplab.budget import BudgetError
from hcplab.cli import float_reprs
from hcplab.epoch import Boundary
from hcplab.laws import (DiracLaw, ExpGeometricLaw, GeometricLaw, SamplingContractError,
                         two_point_law)
from hcplab.measures import dirac, iterate_hcp_measures
from hcplab.hcp import WindowExhaustedError, WindowPolicy, replicate, run_hcp
from hcplab.sampling import (ContainsOrigin, ExchangeableMixture, LatticeStationary,
                             LeftBounded, PeriodicRenewal, Stationary, check_lengths,
                             draw_spec, replica_rng, replica_rngs)
from hcplab.schedule import (ArithmeticThresholds, EpochSchedule, ExplicitThresholds,
                             GeometricThresholds, ScheduleError, east_schedule)
from hcplab.schema import ConfigError, build_schedule
from hcplab.stats import independence_test, ks_test_discrete, ks_two_sample
from oracles import (_pilot_initial_count_loop, replicate_loop, run_hcp_loop,
                     sample_spec_config, seed_sequence_rng, thin_rank_modulo, thinned_z)


# arithmetic thresholds with symmetric incorporation at rate one (gamma = 1)
PASTE_ALL = EpochSchedule(ArithmeticThresholds(), 1.0, 1.0)


class TestSchedule:
    def test_presets_validate(self):
        east_schedule(2.0).validate(8)
        east_schedule(1.5).validate(8)
        PASTE_ALL.validate(8)

    def test_geometric_ratio_bounds(self):
        from hcplab.schedule import east_schedule as es
        with pytest.raises(ScheduleError):
            es(2.5)
        with pytest.raises(ScheduleError):
            es(1.0)

    def test_explicit_thresholds_a2_check(self):
        bad = EpochSchedule(ExplicitThresholds((1.0, 2.0, 5.0)))
        with pytest.raises(ScheduleError, match="epoch 2"):
            bad.validate(2)

    def test_gamma_consistency_enforced(self):
        # gamma is derived from the coefficients; one written in a config
        # must agree with it
        assert PASTE_ALL.gamma == 1.0 and east_schedule().gamma == 0.0
        assert EpochSchedule(right=0.0, left=1.0).gamma is None
        assert build_schedule({"schedule": {"rates": "paste_all", "gamma": 1.0}}) == \
            EpochSchedule(GeometricThresholds(2.0), 1.0, 1.0)
        for schedule in ({"rates": "paste_all", "gamma": 0.0},
                         {"rates": "west", "gamma": 0.0}):
            with pytest.raises(ConfigError, match="'schedule.gamma'"):
                build_schedule({"schedule": schedule})

    def test_bad_coefficients(self):
        with pytest.raises(ScheduleError, match="epoch 1: left coefficient"):
            EpochSchedule(left=-1.0).validate(2)
        with pytest.raises(ScheduleError, match=r"epoch 1: \(A1\) violated"):
            EpochSchedule(right=0.0).validate(2)


class TestRunHcp:
    def test_single_epoch_returns_initial_law(self):
        out = run_hcp(PeriodicRenewal(GeometricLaw(0.5)), east_schedule(2.0), 1,
                      WindowPolicy(n_intervals=40_000), replica_rng(3))
        assert len(out) == 1
        law = GeometricLaw(0.5).atomic(64.0)
        ks = ks_test_discrete(out[0].z_samples, law, n_bootstrap=100, seed=1)
        assert ks.p_value > 0.01

    def test_mean_z2_for_unit_law(self):
        sched = EpochSchedule(GeometricThresholds(2.0), 1.0, 1.0)
        pooled = replicate(ContainsOrigin(DiracLaw(1.0)), sched, 2, 4, 11,
                           WindowPolicy(n_intervals=100_000))
        z = pooled[1].z_samples
        se = z.std() / math.sqrt(z.size)
        assert abs(z.mean() - math.e / 2.0) < 3 * se

    def test_first_point_frozen_without_right_rate(self):
        sched = EpochSchedule(GeometricThresholds(2.0), 1.0, 0.0)
        for r in range(60):
            out = run_hcp(LeftBounded(DiracLaw(1.0)), sched, 5,
                          WindowPolicy(n_intervals=256), replica_rng(7, r))
            assert all(bool(s.first_point_survived[0]) for s in out)
            assert all(s.y[0] == 0.0 for s in out)

    def test_origin_survival_two_sided(self):
        # with left incorporation only, whether the origin of a two-sided
        # configuration survives depends only on its right side, so the
        # exact survival product applies unchanged
        n_rep = 30_000
        pooled = replicate(ContainsOrigin(DiracLaw(1.0)), east_schedule(2.0), 3,
                           n_replicas=n_rep, base_seed=67,
                           window=WindowPolicy(n_intervals=64))
        _, h = iterate_hcp_measures(dirac(1.0, 512.0), lambda n: 2.0 ** (n - 1), 3)
        from hcplab.measures import survival_probability_exact
        for n in (2, 3):
            exact = survival_probability_exact(h, n - 1, 0.0)
            mc = pooled[n - 1].origin_alive.mean()
            assert abs(mc - exact) < 3 * math.sqrt(exact * (1 - exact) / n_rep)

    def test_origin_tracking_with_continuous_law(self):
        # marked-point identity must survive float arithmetic on irrational sums
        class ShiftedExp:
            def sample(self, rng, size):
                return 1.0 + rng.exponential(scale=0.5, size=size)

        out = run_hcp(ContainsOrigin(ShiftedExp()), east_schedule(2.0), 1,
                      WindowPolicy(n_intervals=16), replica_rng(73))
        assert bool(out[0].origin_alive[0])

    def test_epoch_start_state_space(self):
        out = run_hcp(PeriodicRenewal(DiracLaw(1.0)), east_schedule(2.0), 6,
                      WindowPolicy(n_intervals=30_000), replica_rng(19))
        for s in out:
            assert s.z_samples.min() >= 1.0 - 1e-9

    def test_window_exhaustion_reports_epoch(self):
        with pytest.raises(WindowExhaustedError) as err:
            run_hcp(PeriodicRenewal(DiracLaw(1.0)), east_schedule(2.0), 12,
                    WindowPolicy(n_intervals=16), replica_rng(23))
        assert 1 < err.value.epoch <= 12

    def test_renewal_preservation(self):
        # at each epoch start the first two gaps stay independent with the
        # margin predicted by the measure iteration
        n_rep = 2500
        runs = [run_hcp(LeftBounded(two_point_law(1.0, 2.0)), east_schedule(2.0), 3,
                        WindowPolicy(n_intervals=256), replica_rng(29, r))
                for r in range(n_rep)]
        laws, _ = iterate_hcp_measures(two_point_law(1.0, 2.0).atomic(96.0),
                                       lambda n: 2.0 ** (n - 1), 3)
        for e in (1, 2):  # epoch-start index e+1 needs the pushforward e times
            d1 = np.array([r[e].z_samples[0] * r[e].d_n for r in runs
                           if r[e].core_sizes.sum() >= 2])
            d2 = np.array([r[e].z_samples[1] * r[e].d_n for r in runs
                           if r[e].core_sizes.sum() >= 2])
            chi = independence_test(d1, d2, bins=3)
            assert chi.p_value > 0.01
            ks = ks_test_discrete(d1, laws[e], n_bootstrap=100, seed=e)
            assert ks.p_value > 0.01
            ks = ks_test_discrete(d2, laws[e], n_bootstrap=100, seed=e + 10)
            assert ks.p_value > 0.01

    def test_rate_universality_across_factories(self):
        base = WindowPolicy(n_intervals=60_000)
        sched_a = EpochSchedule(GeometricThresholds(2.0), 0.7, 0.7)
        sched_b = EpochSchedule(GeometricThresholds(2.0), 0.0, 1.0, linear=True)
        out_a = run_hcp(PeriodicRenewal(DiracLaw(1.0)), sched_a, 3, base, replica_rng(31))
        out_b = run_hcp(PeriodicRenewal(DiracLaw(1.0)), sched_b, 3, base, replica_rng(32))
        ks = ks_two_sample(out_a[2].z_samples, out_b[2].z_samples)
        assert ks.p_value > 0.01


class TestReplicate:
    def test_single_replica_matches_run(self):
        window = WindowPolicy(n_intervals=2000)
        direct = run_hcp(PeriodicRenewal(DiracLaw(1.0)), east_schedule(2.0), 3,
                         window, replica_rng(41, 0))
        pooled = replicate(PeriodicRenewal(DiracLaw(1.0)), east_schedule(2.0), 3,
                           1, 41, window)
        for a, b in zip(direct, pooled):
            assert np.array_equal(a.z_samples, b.z_samples)

    def test_pooled_run_equals_individual_runs(self):
        # replica r always uses the stream derived from (base_seed, r), so a
        # four-replica run is exactly four one-replica runs pooled
        window = WindowPolicy(n_intervals=1200)
        pooled = replicate(PeriodicRenewal(GeometricLaw(0.5)), east_schedule(2.0),
                           2, 4, 71, window)
        individual = [run_hcp(PeriodicRenewal(GeometricLaw(0.5)), east_schedule(2.0),
                              2, window, replica_rng(71, r))
                      for r in range(4)]
        manual = np.concatenate([run[1].z_samples for run in individual])
        assert np.array_equal(pooled[1].z_samples, manual)

    def test_same_seed_bit_identical(self):
        window = WindowPolicy(n_intervals=3000)
        a = replicate(PeriodicRenewal(GeometricLaw(0.4)), east_schedule(2.0), 3, 4, 43, window)
        b = replicate(PeriodicRenewal(GeometricLaw(0.4)), east_schedule(2.0), 3, 4, 43, window)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.z_samples, sb.z_samples)
            assert np.array_equal(sa.y, sb.y)

    def test_pooled_mean_consistent(self):
        window = WindowPolicy(n_intervals=20_000)
        one = replicate(PeriodicRenewal(DiracLaw(1.0)), east_schedule(2.0), 2, 1, 53, window)
        four = replicate(PeriodicRenewal(DiracLaw(1.0)), east_schedule(2.0), 2, 4, 53, window)
        z1, z4 = one[1].z_samples, four[1].z_samples
        assert z4.size > 3 * z1.size
        se = z4.std() / math.sqrt(min(z1.size, z4.size))
        assert abs(z1.mean() - z4.mean()) < 3 * se


SPECS = {
    "left_bounded": LeftBounded(DiracLaw(1.0)),
    "left_bounded_nu": LeftBounded(GeometricLaw(0.5), 3.0),  # first-point law nu = delta_3
    "contains_origin": ContainsOrigin(two_point_law(1.0, 2.0)),
    "stationary": Stationary(GeometricLaw(0.4)),
    "lattice_stationary": LatticeStationary(GeometricLaw(0.4)),
    "exchangeable": ExchangeableMixture(((0.5, DiracLaw(1.0)), (0.5, GeometricLaw(0.3)))),
    "periodic": PeriodicRenewal(GeometricLaw(0.3)),
}


def count_pilots(monkeypatch) -> list:
    """Record each top-level pilot run of ``hcp`` in the returned list."""
    pilots, pilot = [], hcp._pilot_initial_count

    def counted(*args):
        pilots.append(args)
        return pilot(*args)

    monkeypatch.setattr(hcp, "_pilot_initial_count", counted)
    return pilots


class TestEngineOracle:
    """The batched engine against the per-replica loop it replaced."""

    @staticmethod
    def assert_same(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for field in dataclasses.fields(a):
                x, y = getattr(a, field.name), getattr(b, field.name)
                assert np.asarray(x).dtype == np.asarray(y).dtype, field.name
                assert np.array_equal(x, y), field.name

    @pytest.mark.parametrize("batch_points", [700, hcp._BATCH_POINTS])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_replicate_matches_loop(self, name, batch_points, monkeypatch):
        # 700 points hold two 301-point replicas, so seven replicas run in
        # four batches; buffer_factor 2 leaves WINDOW cores nonempty
        monkeypatch.setattr(hcp, "_BATCH_POINTS", batch_points)
        window = WindowPolicy(n_intervals=300, buffer_factor=2.0)
        for sched in (east_schedule(2.0), PASTE_ALL):
            self.assert_same(replicate(SPECS[name], sched, 4, 7, 5, window),
                             replicate_loop(SPECS[name], sched, 4, 7, 5, window))

    @pytest.mark.parametrize("name", ["contains_origin", "periodic"])
    def test_pilot_matches_loop(self, name, monkeypatch):
        monkeypatch.setattr(hcp, "_BATCH_POINTS", 2000)
        monkeypatch.setattr(hcp, "_PILOT_INTERVALS", 512)
        pilots = count_pilots(monkeypatch)
        window = WindowPolicy(target_core=100, buffer_factor=1.0)
        self.assert_same(replicate(SPECS[name], east_schedule(2.0), 4, 5, 9, window),
                         replicate_loop(SPECS[name], east_schedule(2.0), 4, 5, 9, window))
        assert len(pilots) == 1

    def test_run_hcp_matches_loop(self):
        window = WindowPolicy(n_intervals=500, buffer_factor=2.0)
        self.assert_same(
            run_hcp(SPECS["contains_origin"], east_schedule(2.0), 5, window, replica_rng(3, 2)),
            run_hcp_loop(SPECS["contains_origin"], east_schedule(2.0), 5, window,
                         replica_rng(3, 2))[0])

    @pytest.mark.parametrize("name", ["left_bounded", "periodic"])
    def test_pilot_matches_seed_sequence_streams(self, name, monkeypatch):
        # the pilot spawns from replica 0's stream; the reference runs the
        # same engine on numpy's own SeedSequence streams
        monkeypatch.setattr(hcp, "_PILOT_INTERVALS", 512)
        window = WindowPolicy(target_core=100, buffer_factor=1.0)
        streams = (seed_sequence_rng(9, r) for r in range(5))
        self.assert_same(replicate(SPECS[name], east_schedule(2.0), 4, 5, 9, window),
                         hcp._run(SPECS[name], east_schedule(2.0), 4, window, streams))

    def test_run_hcp_integer_seed(self):
        # the stream of integer seed 17 is numpy's own SeedSequence stream
        window = WindowPolicy(n_intervals=500, buffer_factor=2.0)
        self.assert_same(
            run_hcp(SPECS["periodic"], east_schedule(2.0), 3, window, replica_rng(17)),
            run_hcp(SPECS["periodic"], east_schedule(2.0), 3, window, seed_sequence_rng(17)))

    def test_run_hcp_integer_seed_replica(self):
        # replica r's stream of integer seed 5 is row r of the pooled run
        spec, window = SPECS["periodic"], WindowPolicy(n_intervals=200)
        pooled = replicate(spec, east_schedule(2.0), 3, 4, 5, window)
        for r in range(4):
            got = run_hcp(spec, east_schedule(2.0), 3, window, replica_rng(5, r))
            for a, b in zip(got, pooled, strict=True):
                lo = b.core_sizes[:r].sum()
                assert np.array_equal(a.z_samples, b.z_samples[lo:lo + b.core_sizes[r]])
                for name in hcp._ARRAY_FIELDS[1:]:  # the per-replica fields
                    assert np.array_equal(getattr(a, name), getattr(b, name)[r:r + 1]), name

    @pytest.mark.parametrize("batch_points", [1, hcp._BATCH_POINTS])
    def test_exhaustion_reports_earliest_epoch(self, batch_points, monkeypatch):
        # alone, the four replicas run out at epochs 6, 6, 5, 5: the batch
        # reports 5, where replica order would have reported replica 0's 6
        monkeypatch.setattr(hcp, "_BATCH_POINTS", batch_points)
        spec, window = PeriodicRenewal(GeometricLaw(0.5)), WindowPolicy(n_intervals=6)
        alone = []
        for r in range(4):
            with pytest.raises(WindowExhaustedError) as err:
                run_hcp_loop(spec, east_schedule(2.0), 12, window, replica_rng(4, r))
            alone.append(err.value.epoch)
        assert alone == [6, 6, 5, 5]
        with pytest.raises(WindowExhaustedError) as err:
            replicate(spec, east_schedule(2.0), 12, 4, 4, window)
        assert err.value.epoch == 5


class TestLengthsCarried:
    """The engine carries the drawn lengths, so sums of off-lattice lengths
    are rounded once per addition and never taken back as differences."""

    LAWS = {"sqrt2": two_point_law(1.0, math.sqrt(2.0)), "exp_geometric": ExpGeometricLaw(0.4)}
    KINDS = {"periodic": PeriodicRenewal, "left_bounded": LeftBounded,
             "contains_origin": ContainsOrigin}

    @pytest.mark.parametrize("batch_points", [700, hcp._BATCH_POINTS])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_replicate_matches_loop(self, law, kind, batch_points, monkeypatch):
        # the event loop merges a list of lengths itself, each merged interval
        # summed left to right; seven replicas run in four batches at 700 points
        monkeypatch.setattr(hcp, "_BATCH_POINTS", batch_points)
        spec, window = self.KINDS[kind](self.LAWS[law]), WindowPolicy(n_intervals=300,
                                                                       buffer_factor=2.0)
        for sched in (east_schedule(2.0), PASTE_ALL):
            got = replicate(spec, sched, 6, 7, 5, window)
            TestEngineOracle.assert_same(got, replicate_loop(spec, sched, 6, 7, 5, window))
            assert any(not s.first_point_survived.all() for s in got)
            assert any(not s.origin_alive.all() for s in got)

    def test_first_z_are_the_drawn_lengths(self):
        # differences of coordinates used to leave most of these z off, by up
        # to 1e-3 relative
        spec = PeriodicRenewal(ExpGeometricLaw(0.4))
        first = replicate(spec, east_schedule(2.0), 2, 4, 3, WindowPolicy(n_intervals=20_000))[0]
        drawn = [draw_spec(spec, 20_000, replica_rng(3, r))[1] for r in range(4)]
        assert np.array_equal(first.z_samples, np.concatenate(drawn) / first.d_n)

    def test_huge_length_beside_unit_ones(self):
        # coordinates past 2^53 used to round unit gaps to 0.0
        out = run_hcp(LeftBounded(two_point_law(1.0, 2.0**52)), east_schedule(2.0), 6,
                      WindowPolicy(n_intervals=2000), replica_rng(8))
        assert out[0].z_samples.min() == 1.0 and out[0].z_samples.max() == 2.0**52
        assert all(s.z_samples.min() >= 1 for s in out)


class TestWindowBudget:
    """A window past the memory budget, at 64 bytes per initial point of a
    replica, fails before anything is drawn."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def draw_spec(*args):
            raise AssertionError("drawn")
        monkeypatch.setattr(hcp, "draw_spec", draw_spec)
        # the budget in bytes: 2^25 intervals times 64 bytes a point
        monkeypatch.setattr(budget, "BUDGET_BYTES", (1 << 25) * 64)

    def test_explicit_count(self):
        spec = SPECS["periodic"]
        with pytest.raises(BudgetError, match=r"^a window of 100000000000 initial intervals per "
                           r"replica needs .* lower window\.n_intervals$"):
            replicate(spec, east_schedule(2.0), 2, 2, 0, WindowPolicy(n_intervals=10**11))
        with pytest.raises(AssertionError, match="drawn"):  # the budget itself is allowed
            replicate(spec, east_schedule(2.0), 2, 2, 0, WindowPolicy(n_intervals=1 << 25))

    def test_pilot_sized_count(self, monkeypatch):
        monkeypatch.setattr(hcp, "_pilot_initial_count", lambda *args: (1 << 25) + 1)
        with pytest.raises(BudgetError, match="lower window\\.target_core$"):
            run_hcp(SPECS["left_bounded"], east_schedule(2.0), 2,
                    WindowPolicy(target_core=10**12), replica_rng(0))


class TestBatchDraws:
    """The batch draws of ``_draw`` against the per-replica samplers they
    replaced (the same lengths, first points, marked indices and generator
    states), and the batches a run makes: ``max(1, min(_BATCH_POINTS // width,
    _BATCH_REPLICAS))`` replicas each, in stream order."""

    @staticmethod
    def initial_count(spec, window):
        if window.n_intervals is not None:
            return window.n_intervals
        # one pilot, on replica 0's stream, sizes every replica
        return _pilot_initial_count_loop(spec, east_schedule(2.0), 4, window, replica_rng(6, 0))

    def check(self, spec, window, n_replicas, monkeypatch):
        streams = [replica_rng(6, r) for r in range(n_replicas)]
        batches, run_batch = [], hcp._run_batch  # (n0, streams) of each batch run

        def spy(spec, schedule, window, n0, rngs, folds):
            if rngs[0] in streams:  # not the pilot's run
                batches.append((n0, rngs))
            return run_batch(spec, schedule, window, n0, rngs, folds)

        monkeypatch.setattr(hcp, "_run_batch", spy)
        hcp._run(spec, east_schedule(2.0), 4, window, iter(streams))
        n0 = self.initial_count(spec, window)
        periodic = spec.boundary is Boundary.PERIODIC
        size = max(1, min(hcp._BATCH_POINTS // (n0 if periodic else n0 + 1),
                          hcp._BATCH_REPLICAS))
        assert [len(rngs) for _, rngs in batches] == \
            [min(size, n_replicas - lo) for lo in range(0, n_replicas, size)]
        assert [rng for _, rngs in batches for rng in rngs] == streams
        assert {n for n, _ in batches} == {n0}
        for lo in range(0, n_replicas, size):  # the same batches, drawn afresh
            rngs = [replica_rng(6, r) for r in range(lo, min(lo + size, n_replicas))]
            firsts, rows, marked = hcp._draw(spec, n0, rngs)
            # one slot per point: the lengths, and +inf for the last point
            assert rows.shape == (len(rngs), n0 if periodic else n0 + 1)
            assert np.isinf(rows[:, n0:]).all()
            for i, rng in enumerate(rngs):
                want_rng = replica_rng(6, lo + i)
                first, lengths, boundary, idx = sample_spec_config(spec, n0, want_rng)
                assert (firsts[i], marked[i]) == (first, idx)
                assert np.array_equal(rows[i, :n0], lengths)
                assert rng.bit_generator.state == want_rng.bit_generator.state
        return batches

    # sums of irrational lengths depend on the order of the additions
    IRRATIONAL = {"left_bounded_sqrt2": LeftBounded(two_point_law(1.0, math.sqrt(2.0))),
                  "periodic_sqrt2": PeriodicRenewal(two_point_law(1.0, math.sqrt(2.0)))}

    @pytest.mark.parametrize("batch_points", [1, 700, hcp._BATCH_POINTS])
    @pytest.mark.parametrize("name", sorted(SPECS) + sorted(IRRATIONAL))
    def test_fixed_window(self, name, batch_points, monkeypatch):
        monkeypatch.setattr(hcp, "_BATCH_POINTS", batch_points)
        spec = SPECS[name] if name in SPECS else self.IRRATIONAL[name]
        batches = self.check(spec, WindowPolicy(n_intervals=300), 7, monkeypatch)
        assert len(batches) == {1: 7, 700: 4}.get(batch_points, 1)

    @pytest.mark.parametrize("batch_points, sizes", [
        (hcp._BATCH_POINTS, [3, 3, 1]),  # 217 replicas of 301 points fit: the cap binds
        (700, [2, 2, 2, 1]),  # 2 fit, below the cap
    ])
    @pytest.mark.parametrize("name", ["left_bounded", "periodic"])
    def test_replica_cap(self, name, batch_points, sizes, monkeypatch):
        monkeypatch.setattr(hcp, "_BATCH_POINTS", batch_points)
        monkeypatch.setattr(hcp, "_BATCH_REPLICAS", 3)
        batches = self.check(SPECS[name], WindowPolicy(n_intervals=300), 7, monkeypatch)
        assert [len(rngs) for _, rngs in batches] == sizes

    def test_draw_writes_into_rows(self):
        # each replica's draw goes straight into its row: beyond what it
        # returns and the row sums, one float a replica, the peak holds one draw
        spec, rngs = LeftBounded(DiracLaw(1.0)), list(replica_rngs(3, 1008))
        tracemalloc.start()
        try:
            firsts, rows, marked = hcp._draw(spec, 64, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (1008, 65)
        one_draw = draw_spec(spec, 64, replica_rng(3, 0))[1].nbytes
        held = rows.nbytes + firsts.nbytes + marked.nbytes + 8 * len(rngs)
        assert peak < held + one_draw + 4096, (peak, held)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_pilot_window(self, name, monkeypatch):
        # one pilot sizes every replica, so replicas under the cap share a batch
        monkeypatch.setattr(hcp, "_PILOT_INTERVALS", 256)
        pilots = count_pilots(monkeypatch)
        window = WindowPolicy(target_core=60, buffer_factor=1.0)
        batches = self.check(SPECS[name], window, 4, monkeypatch)
        assert len(pilots) == 1 and len(batches) == 1

    def test_public_sampler_is_the_oracle(self):
        for name, spec in sorted(SPECS.items()):
            for r in range(5):
                rng, ref_rng = replica_rng(7, r), replica_rng(7, r)
                first, lengths, idx = draw_spec(spec, 50, rng)
                want_first, want, boundary, want_idx = sample_spec_config(spec, 50, ref_rng)
                assert (spec.boundary, first, idx) == (boundary, want_first, want_idx), name
                assert np.array_equal(check_lengths(spec, lengths), want), name
                assert rng.bit_generator.state == ref_rng.bit_generator.state, name

    class BadLaw:
        """Mean 2 and valid size-biased draws; ``sample`` puts ``bad`` in
        its third draw."""

        mean = 2.0

        def __init__(self, bad):
            self.bad = bad

        def sample(self, rng, size):
            out = np.full(size, 2.0)
            if size > 2:
                out[2] = self.bad
            return out

        def sample_size_biased(self, rng, size):
            return np.full(size, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", [LeftBounded, ContainsOrigin, Stationary,
                                      LatticeStationary, PeriodicRenewal, "exchangeable"])
    def test_bad_length_raises(self, kind, bad, monkeypatch):
        law = self.BadLaw(bad)
        spec = ExchangeableMixture(((1.0, law),)) if kind == "exchangeable" else kind(law)
        message = "^law produced a nonpositive or non-finite length$"
        for batch_points in (1, hcp._BATCH_POINTS):
            monkeypatch.setattr(hcp, "_BATCH_POINTS", batch_points)
            with pytest.raises(SamplingContractError, match=message):
                replicate(spec, east_schedule(2.0), 2, 3, 8, WindowPolicy(n_intervals=10))
        with pytest.raises(SamplingContractError, match=message):
            check_lengths(spec, draw_spec(spec, 10, replica_rng(8))[1])
        with pytest.raises(SamplingContractError, match=message):
            sample_spec_config(spec, 10, replica_rng(8))

    def test_non_integer_lattice_gap_raises(self):
        spec = LatticeStationary(self.BadLaw(1.5))
        for run in (lambda: replicate(spec, east_schedule(2.0), 2, 3, 8,
                                      WindowPolicy(n_intervals=10)),
                    lambda: check_lengths(spec, draw_spec(spec, 10, replica_rng(8))[1]),
                    lambda: sample_spec_config(spec, 10, replica_rng(8))):
            with pytest.raises(SamplingContractError, match="non-integer gap"):
                run()


class TestReplicaCap:
    """The pooled summaries do not depend on how many replicas a batch holds,
    where the replica cap sets it and where the points do."""

    @pytest.mark.parametrize("n_intervals, n_replicas, binds", [
        (64, 600, True),  # 1,008 replicas of 65 points fit: batches of the cap
        (300, 250, False),  # 217 replicas of 301 points fit, below the cap
    ])
    def test_pooled_output_does_not_depend_on_batches(self, n_intervals, n_replicas, binds,
                                                      monkeypatch):
        spec = LeftBounded(GeometricLaw(0.5))
        window = WindowPolicy(n_intervals=n_intervals, buffer_factor=2.0)
        fit = hcp._BATCH_POINTS // (n_intervals + 1)
        assert (hcp._BATCH_REPLICAS < fit) == binds and n_replicas > min(fit, hcp._BATCH_REPLICAS)

        def run():  # z thinned as batches arrive, so the stride grows batch by batch
            return replicate(spec, east_schedule(2.0), 4, n_replicas, 9, window,
                             z_per_epoch=2000)

        batched = run()
        monkeypatch.setattr(hcp, "_BATCH_POINTS", 1)  # one replica a batch
        TestEngineOracle.assert_same(batched, run())


class TestZThinning:
    """``z_per_epoch`` against the one-replica-at-a-time oracle rule."""

    SPEC = LeftBounded(GeometricLaw(0.5))
    WINDOW = WindowPolicy(n_intervals=300, buffer_factor=2.0)

    @pytest.mark.parametrize("batch_points", [700, hcp._BATCH_POINTS])
    @pytest.mark.parametrize("keep", [0, 1, 6, 40, 300, 10**6])
    def test_matches_oracle_rule(self, keep, batch_points, monkeypatch):
        # seven replicas with cores of ~300 down to ~7 over six epochs; 700
        # points run them two at a time, so the stride grows batch by batch
        monkeypatch.setattr(hcp, "_BATCH_POINTS", batch_points)
        full = replicate(self.SPEC, east_schedule(2.0), 6, 7, 5, self.WINDOW)
        thin = replicate(self.SPEC, east_schedule(2.0), 6, 7, 5, self.WINDOW,
                         z_per_epoch=keep)
        strides = []
        for a, b in zip(full, thin, strict=True):
            stride, z = thinned_z(a, keep)
            assert b.z_stride == stride
            np.testing.assert_array_equal(b.z_samples, z)
            assert b.core_sizes.sum() == a.core_sizes.sum() == a.z_samples.size
            for field in dataclasses.fields(a):
                if field.name not in ("z_stride", "z_samples"):
                    np.testing.assert_array_equal(getattr(b, field.name),
                                                  getattr(a, field.name))
            strides.append(stride)
        if keep == 40:
            assert len(set(strides)) > 2

    @given(cores=st.lists(st.one_of(st.just(0), st.integers(1, 400)), min_size=1, max_size=50),
           have=st.sampled_from([1, 2, 4, 8, 16, 64]), up=st.integers(-1, 6))
    @settings(max_examples=300, deadline=None)
    def test_kept_indices_match_rank_modulo(self, cores, have, up):
        # want = have * 2^up, or 0 for up = -1; each held z is its own position
        core_sizes = np.array(cores, dtype=np.int64)
        want = have << up if up >= 0 else 0
        held = np.arange(int((-(-core_sizes // have)).sum()))
        np.testing.assert_array_equal(held[hcp._kept(core_sizes, have, want)],
                                      thin_rank_modulo(held, core_sizes, have, want))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="z_per_epoch"):
            replicate(self.SPEC, east_schedule(2.0), 2, 2, 5, self.WINDOW, z_per_epoch=-1)

    def test_memory_does_not_grow_with_replicas(self):
        # criterion 5's shape: only the O(replicas * epochs) per-replica
        # fields may grow, so the peak stays at about one batch's working set
        def peak(n_replicas):
            tracemalloc.start()
            try:
                replicate(LeftBounded(DiracLaw(1.0)), east_schedule(2.0), 8, n_replicas,
                          50, WindowPolicy(n_intervals=2048), z_per_epoch=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(100), peak(400)
        assert large < 1.1 * small, (small, large)

    def test_no_z_formed_when_none_kept(self):
        # each epoch is folded as it is formed and forms only the z it keeps:
        # with none kept, 64 replicas of 8,192 intervals (batches of seven,
        # 7 * 8,193 points) peak at the batch's working set, no core z array
        tracemalloc.start()
        try:
            replicate(LeftBounded(DiracLaw(1.0)), east_schedule(2.0), 10, 64, 50,
                      WindowPolicy(n_intervals=8192), z_per_epoch=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (7 * 8193) <= 70, peak / (7 * 8193)

    def test_constant_rates_hold_no_draws_to_the_end(self):
        # the resolver lets go of its draws once the erase-left flags are
        # formed: one replica of 2^17 intervals under constant rates peaks
        # below 32 traced bytes a point (36.1 while the last segment's view
        # kept them alive); a small run first loads numpy.random untraced
        run = lambda n: replicate(LeftBounded(DiracLaw(1.0)), EpochSchedule(left=1.0), 4, 1, 3,
                                  WindowPolicy(n_intervals=n), z_per_epoch=0)
        run(64)
        tracemalloc.start()
        try:
            run(1 << 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (1 << 17) < 32, peak / (1 << 17)


class TestFloatReprs:
    @pytest.mark.parametrize("values", [
        [], [0.0, -0.0, 0.0, -0.0], [math.nan, -math.nan, math.nan, 1.0, 1.0, math.nan, 1.0, 1.0],
        [math.inf, -math.inf, math.inf, 5e-324, -5e-324, 1.7976931348623157e308,
         -1.7976931348623157e308, 5e-324],
        [0.5, 0.1, 0.5, 1 / 3, 0.1, 0.30000000000000004, 0.3, 2.0 ** -1074],
    ])
    def test_equals_repr(self, values):
        v = np.array(values, dtype=float)
        assert float_reprs(v) == list(map(repr, v.tolist()))

    def test_equals_repr_on_random_floats(self):
        # all distinct (formatted one by one), then a lattice with duplicates
        # (each distinct value once), then 1,000 distinct among the lattice
        rng = np.random.default_rng(3)
        distinct = rng.uniform(0.0, 1e3, 5000) * 10.0 ** rng.integers(-300, 300, 5000)
        lattice = rng.integers(1, 200, 5000) / 2.0 ** 9
        for v in (distinct, lattice, rng.permutation(np.concatenate((distinct[:1000], lattice)))):
            assert float_reprs(v) == list(map(repr, v.tolist()))


class TestWindowSizing:
    def test_pilot_reaches_target_core(self):
        pooled = replicate(PeriodicRenewal(DiracLaw(1.0)), east_schedule(2.0), 4,
                           2, 61, WindowPolicy(target_core=500))
        assert pooled[3].core_sizes.sum() >= 500

    @staticmethod
    def record_pilots(monkeypatch) -> list:
        """Record each pilot run as (initial intervals, survivors), survivors
        None for a pilot whose window runs out."""
        pilots, run = [], hcp._run

        def recorded(spec, schedule, n_epochs, window, *args):
            if window.target_core is not None:  # the run the pilot sizes
                return run(spec, schedule, n_epochs, window, *args)
            pilots.append((window.n_intervals, None))
            summaries = run(spec, schedule, n_epochs, window, *args)
            pilots[-1] = (window.n_intervals, int(summaries[-1].n_intervals.sum()))
            return summaries

        monkeypatch.setattr(hcp, "_run", recorded)
        return pilots

    def test_pilot_retries_with_few_survivors(self, monkeypatch):
        # 10 epochs leave 4,096 intervals fewer than 8 survivors
        pilots = self.record_pilots(monkeypatch)
        pooled = replicate(PeriodicRenewal(DiracLaw(1.0)), east_schedule(2.0), 10, 2, 5,
                           WindowPolicy(target_core=100))
        (n1, s1), (n2, s2) = pilots
        assert (n1, n2) == (hcp._PILOT_INTERVALS, 4 * hcp._PILOT_INTERVALS)
        assert s1 < 8 <= s2
        assert pooled[9].core_sizes.min() >= 100

    def test_pilot_retries_exhausted_then_raises(self, monkeypatch):
        # at 16 epochs the first two pilots run out and the next two keep
        # fewer than 8, so the run raises for the last epoch
        pilots = self.record_pilots(monkeypatch)
        with pytest.raises(WindowExhaustedError) as info:
            replicate(PeriodicRenewal(DiracLaw(1.0)), east_schedule(2.0), 16, 2, 5,
                      WindowPolicy(target_core=100))
        assert info.value.epoch == 16
        assert [n for n, _ in pilots] == [hcp._PILOT_INTERVALS * 4 ** k for k in range(4)]
        assert [s for _, s in pilots[:2]] == [None, None]
        assert all(s < 8 for _, s in pilots[2:])

    def test_policy_requires_some_size(self):
        with pytest.raises(ValueError):
            WindowPolicy()
