import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcplab import sampling
from hcplab.epoch import Boundary
from hcplab.laws import (DiracLaw, ExpGeometricLaw, GeometricLaw, ParetoHalfLaw,
                         SamplingContractError, two_point_law)
from hcplab.measures import AtomicMeasure
from hcplab.sampling import (ContainsOrigin, ExchangeableMixture, LatticeStationary,
                             LeftBounded, PeriodicRenewal, Stationary, check_lengths,
                             draw_spec, replica_rng, replica_rngs)
from hcplab.stats import independence_test, ks_test_discrete, ks_two_sample
from oracles import seed_sequence_rng


def realize(spec, n_intervals, rng):
    """(first point, lengths, marked index) of one checked draw of ``spec``."""
    first, lengths, marked = draw_spec(spec, n_intervals, rng)
    return first, check_lengths(spec, lengths), marked


def draw(spec, n_intervals, rng):
    """(first point, lengths) of one checked draw of ``spec``."""
    return realize(spec, n_intervals, rng)[:2]


class Exponential:
    """Exponential lengths of mean 1: a continuous law for the samplers."""

    mean = 1.0

    def sample(self, rng, size):
        return rng.exponential(scale=1.0, size=size)

    def sample_size_biased(self, rng, size):
        # the length-biased exponential is Gamma(2, 1)
        return rng.gamma(2.0, scale=1.0, size=size)


SEEDS = st.integers(0, 2**140 - 1)  # one to five entropy words
REPLICAS = st.sampled_from([0, 1, sampling._BLOCK - 1, sampling._BLOCK, sampling._BLOCK + 1,
                            2**32 - 1]) | st.integers(0, 2**32 - 1)


def state(rng):
    return rng.bit_generator.state


class TestReplicaStreams:
    """The streams against numpy's own SeedSequence route, one call at a time
    (``replica_rng``) and a block at a time (``replica_rngs``)."""

    def test_reproducible_and_distinct(self):
        a1 = replica_rng(7, 0).random(5)
        a2 = replica_rng(7, 0).random(5)
        b = replica_rng(7, 1).random(5)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    @given(seed=SEEDS, replica=REPLICAS)
    def test_single_matches_seed_sequence(self, seed, replica):
        assert state(replica_rng(seed, replica)) == state(seed_sequence_rng(seed, replica))

    @given(seed=SEEDS, replicas=st.lists(REPLICAS, min_size=1, max_size=6))
    def test_block_matches_seed_sequence(self, seed, replicas):
        words = np.stack(sampling._pcg_words(seed, np.array(replicas, np.uint64)), axis=1)
        make = sampling._stream_maker()
        for r, row in zip(replicas, words):
            assert state(make(seed, r, row)) == state(seed_sequence_rng(seed, r))

    @given(seed=SEEDS, block=st.integers(1, 4), n_replicas=st.integers(1, 10))
    def test_replica_rngs_match_seed_sequence(self, seed, block, n_replicas):
        with mock.patch.object(sampling, "_BLOCK", block):  # every block edge
            got = list(replica_rngs(seed, n_replicas))
        assert len(got) == n_replicas
        for r, rng in enumerate(got):
            assert state(rng) == state(seed_sequence_rng(seed, r))

    @pytest.mark.parametrize("seed", [0, 2**32, 2**140 + 3])
    def test_replica_rngs_across_a_block(self, seed):
        n = sampling._BLOCK + 2
        got = list(replica_rngs(seed, n))
        assert len(got) == n
        for r, rng in enumerate(got):
            assert state(rng) == state(seed_sequence_rng(seed, r))

    @settings(max_examples=25)
    @given(seed=SEEDS, replica=REPLICAS)
    def test_spawn_matches_seed_sequence(self, seed, replica):
        for rng, ref in ((replica_rng(seed, replica), seed_sequence_rng(seed, replica)),
                         (next(replica_rngs(seed, 1)), seed_sequence_rng(seed, 0))):
            for n_children in (1, 2):  # the second spawn continues where numpy's does
                assert [state(c) for c in rng.spawn(n_children)] == \
                    [state(c) for c in ref.spawn(n_children)]
            assert state(rng) == state(ref)
            assert rng.random() == ref.random()

    def test_pickles_as_its_seed_sequence(self):
        rng = replica_rng(11, 4)
        rng.random(3)
        copy = pickle.loads(pickle.dumps(rng))
        assert state(copy) == state(rng)
        assert state(copy.spawn(1)[0]) == state(seed_sequence_rng(11, 4).spawn(1)[0])

    def test_indices_below_2_32(self):
        with pytest.raises(ValueError, match="2\\^32"):
            replica_rng(0, 2**32)
        with pytest.raises(ValueError, match="2\\^32"):
            replica_rng(0, -1)
        with pytest.raises(ValueError, match="2\\^32"):
            next(replica_rngs(0, 2**32 + 1))
        with pytest.raises(ValueError, match="seed"):
            replica_rng(-1)


class TestLeftBounded:
    def test_deterministic_laws(self, rng):
        first, lengths = draw(LeftBounded(DiracLaw(1.0), 0.0), 3, rng)
        assert LeftBounded.boundary is Boundary.LEFT_BOUNDED
        assert first == 0.0
        assert np.allclose(lengths, [1.0, 1.0, 1.0])

    def test_geometric_mean(self, rng):
        n = 100_000
        lengths = draw(LeftBounded(GeometricLaw(0.5)), n, rng)[1]
        mean = lengths.mean()
        se = lengths.std() / math.sqrt(n)
        assert abs(mean - 2.0) < 3 * se

    def test_single_interval(self, rng):
        assert draw(LeftBounded(Exponential()), 1, rng)[1].size == 1

    def test_consecutive_intervals_independent(self):
        d1, d2 = [], []
        for r in range(4000):
            lengths = draw(LeftBounded(GeometricLaw(0.4)), 2, replica_rng(13, r))[1]
            d1.append(lengths[0])
            d2.append(lengths[1])
        res = independence_test(np.array(d1), np.array(d2), bins=3)
        assert res.p_value > 0.01

    def test_bad_law_rejected(self, rng):
        class ZeroLaw:
            def sample(self, rng, size):
                return np.zeros(size)

        with pytest.raises(SamplingContractError):
            draw(LeftBounded(ZeroLaw()), 4, rng)


class TestStationary:
    def test_point_mass_straddle(self):
        offs = []
        for r in range(3000):
            first, lengths = draw(Stationary(DiracLaw(2.0)), 1, replica_rng(5, r))
            assert lengths[0] == 2.0
            assert -2.0 < first <= 0.0
            offs.append(-first)
        # origin offset uniform on (0, 2]
        offs = np.array(offs)
        u = ks_two_sample(offs, 2.0 * replica_rng(6).random(3000))
        assert u.p_value > 0.01

    def test_exponential_straddle_is_gamma2(self):
        vals = np.array([draw(Stationary(Exponential()), 1, replica_rng(8, r))[1][0]
                         for r in range(20_000)])
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - 2.0) < 3 * se

    def test_two_point_size_bias(self):
        law = two_point_law(1.0, 2.0, 0.5)
        hits = 0
        n = 30_000
        draws = law.sample_size_biased(replica_rng(9), n)
        hits = np.mean(draws == 2.0)
        se = math.sqrt((2 / 3) * (1 / 3) / n)
        assert abs(hits - 2.0 / 3.0) < 3 * se

    def test_exp_geometric_size_bias(self):
        # P*(G = k) is proportional to e^k p (1-p)^(k-1), normalized here
        # over k <= 200 (the rest is below 1e-100)
        p = 0.9
        k = np.arange(1, 201, dtype=float)
        w = np.exp(k) * p * (1 - p) ** (k - 1)
        log_draws = np.log(ExpGeometricLaw(p).sample_size_biased(replica_rng(10), 20_000))
        g = np.rint(log_draws)
        assert np.allclose(log_draws, g, rtol=0.0, atol=1e-12)
        assert ks_test_discrete(g, AtomicMeasure(k, w / w.sum(), 200.0)).p_value > 0.01

    def test_infinite_mean_rejected(self):
        with pytest.raises(SamplingContractError, match="infinite mean"):
            Stationary(ParetoHalfLaw())

    def test_periodic_mode(self, rng):
        assert PeriodicRenewal.boundary is Boundary.PERIODIC
        assert draw(PeriodicRenewal(Exponential()), 50, rng)[1].size == 50


class TestLatticeStationary:
    def test_unit_law_occupies_everything(self, rng):
        first, lengths = draw(LatticeStationary(DiracLaw(1.0)), 10, rng)
        assert np.allclose(lengths, 1.0)
        assert first == 0.0  # straddle 1 forces offset 0

    def test_geometric_density(self):
        p = 0.3
        occupied = total = 0
        for r in range(300):
            lengths = draw(LatticeStationary(GeometricLaw(p)), 200, replica_rng(21, r))[1]
            window = lengths.sum()
            occupied += lengths.size + 1
            total += window + 1
        density = occupied / total
        se = math.sqrt(p * (1 - p) / total)
        assert abs(density - p) < 3 * se

    def test_two_lattice_law_has_density_half(self):
        at_zero = 0
        n = 4000
        for r in range(n):
            first = draw(LatticeStationary(DiracLaw(2.0)), 3, replica_rng(31, r))[0]
            assert first in (0.0, -1.0)  # random parity
            at_zero += first == 0.0
        se = math.sqrt(0.25 / n)
        assert abs(at_zero / n - 0.5) < 3 * se


class TestExchangeable:
    def test_single_component_matches_left_bounded(self, rng):
        first, lengths = draw(ExchangeableMixture(((1.0, DiracLaw(3.0)),)), 5, rng)
        assert first == 0.0
        assert np.allclose(lengths, 3.0)

    def test_two_point_mixture(self):
        all_equal = True
        ones = 0
        n = 2000
        for r in range(n):
            lengths = draw(ExchangeableMixture(((0.5, DiracLaw(1.0)), (0.5, DiracLaw(2.0)))),
                           4, replica_rng(41, r))[1]
            all_equal &= len(set(lengths)) == 1
            ones += lengths[0] == 1.0
        assert all_equal
        assert abs(ones / n - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_degenerate_weights(self, rng):
        lengths = draw(ExchangeableMixture(((1.0, DiracLaw(1.0)), (0.0, DiracLaw(9.0)))), 6,
                       rng)[1]
        assert np.allclose(lengths, 1.0)

    def test_empty_mixture_rejected(self):
        with pytest.raises(SamplingContractError):
            ExchangeableMixture(())

    def test_output_is_exchangeable(self):
        # coordinates of (d1, d2, d3) keep their joint law under permutation
        trips = np.array([
            draw(ExchangeableMixture(((0.5, GeometricLaw(0.8)), (0.5, GeometricLaw(0.25)))),
                 3, replica_rng(51, r))[1]
            for r in range(5000)])
        stat = ks_two_sample(trips[:, 0], trips[:, 2])
        assert stat.p_value > 0.01
        # and the coordinates are correlated through the shared component,
        # unlike a plain renewal draw
        res = independence_test(trips[:, 0], trips[:, 1], bins=2)
        assert res.p_value < 1e-6


class TestSampleSpec:
    def test_contains_origin_marks_origin(self, rng):
        first, lengths, marked = realize(ContainsOrigin(GeometricLaw(0.5)), 9, rng)
        assert ContainsOrigin.boundary is Boundary.WINDOW
        assert first + lengths[:marked].sum() == 0.0

    def test_periodic_variant(self, rng):
        first, lengths, marked = realize(PeriodicRenewal(DiracLaw(1.0)), 11, rng)
        assert lengths.size == 11
        assert marked == 0

    def test_left_bounded_variant(self, rng):
        first, _, marked = realize(LeftBounded(DiracLaw(2.0)), 4, rng)
        assert first == 0.0 and marked == 0

    def test_mixture_spec_validation(self):
        with pytest.raises(SamplingContractError):
            ExchangeableMixture(((0.7, DiracLaw(1.0)), (0.7, DiracLaw(2.0))))
