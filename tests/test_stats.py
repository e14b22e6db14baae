import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcplab.measures import AtomicMeasure
from hcplab.sampling import replica_rng
from hcplab.stats import (exchangeable_identity_check, independence_test,
                          ks_test, ks_test_discrete,
                          ks_two_sample)


class TestSampleSet:
    def test_rejects_empty(self):
        empty, one = np.array([]), np.array([1.0])
        law = AtomicMeasure([1.0], [1.0], l_max=2.0)
        for call in (lambda: ks_test(empty, lambda x: x),
                     lambda: ks_two_sample(empty, one),
                     lambda: ks_two_sample(one, empty),
                     lambda: ks_test_discrete(empty, law),
                     lambda: independence_test(empty, empty)):
            with pytest.raises(ValueError, match="nonempty"):
                call()


class TestKsTest:
    def test_calibration(self):
        # p-values are uniform under the null: the rejection rate at 5%
        # stays near 5% over repetitions
        reps, n = 200, 10_000
        rejected = 0
        for r in range(reps):
            u = replica_rng(301, r).random(n)
            res = ks_test(u, lambda x: np.clip(x, 0.0, 1.0))
            rejected += res.p_value < 0.05
        assert abs(rejected / reps - 0.05) <= 0.03

    def test_constant_sample_edge_case(self):
        cdf = lambda x: np.clip(np.asarray(x, float), 0.0, 1.0)
        res = ks_test(np.full(100, 0.5), cdf)
        assert res.statistic == pytest.approx(0.5)
        res = ks_test(np.full(100, 0.9), cdf)
        assert res.statistic >= 0.5

    def test_power_against_shift(self):
        u = replica_rng(103).random(10_000) + 0.1
        res = ks_test(u, lambda x: np.clip(x, 0.0, 1.0))
        assert res.p_value < 1e-6

    def test_statistic_bounds(self):
        u = replica_rng(104).random(500)
        res = ks_test(u, lambda x: np.clip(x, 0.0, 1.0))
        assert 0.0 <= res.statistic <= 1.0
        assert 0.0 <= res.p_value <= 1.0

    def test_rejects_decreasing_cdf(self):
        with pytest.raises(ValueError):
            ks_test(np.array([0.1, 0.9]), lambda x: 1.0 - np.asarray(x))


class TestDiscreteKs:
    def test_null_accepts(self):
        law = AtomicMeasure([1.0, 2.0, 3.0], [0.5, 0.3, 0.2], l_max=5.0)
        rng = replica_rng(107)
        draws = rng.choice([1.0, 2.0, 3.0], p=[0.5, 0.3, 0.2], size=5000)
        res = ks_test_discrete(draws, law, n_bootstrap=200, seed=5)
        assert res.p_value > 0.01

    def test_alternative_rejects(self):
        law = AtomicMeasure([1.0, 2.0, 3.0], [0.5, 0.3, 0.2], l_max=5.0)
        rng = replica_rng(109)
        draws = rng.choice([1.0, 2.0, 3.0], p=[0.3, 0.5, 0.2], size=5000)
        res = ks_test_discrete(draws, law, n_bootstrap=200, seed=6)
        assert res.p_value < 0.01


class TestIndependence:
    def test_calibration(self):
        rejected = 0
        reps = 150
        for r in range(reps):
            rng = replica_rng(137, r)
            res = independence_test(rng.random(2000), rng.random(2000), bins=4)
            rejected += res.p_value < 0.05
        assert abs(rejected / reps - 0.05) <= 0.05

    def test_correlated_pairs_rejected(self):
        x = replica_rng(139).random(10_000)
        res = independence_test(x, x, bins=4)
        assert res.p_value < 1e-10

    def test_balanced_two_by_two_has_zero_statistic(self):
        x = np.array([0.0, 0.0, 1.0, 1.0] * 20)
        y = np.array([0.0, 1.0, 0.0, 1.0] * 20)
        res = independence_test(x, y, bins=2)
        assert res.statistic == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_margin_errors(self):
        with pytest.raises(ValueError):
            independence_test(np.ones(100), replica_rng(149).random(100))


class TestExchangeableIdentity:
    def test_chain_k2_exact(self):
        total, dev = exchangeable_identity_check([0.3, 1.7], "chain")
        assert dev == 0.0 or dev < 1e-15

    def test_chain_k5_random(self, rng):
        g = rng.uniform(0.1, 4.0, size=5)
        total, dev = exchangeable_identity_check(g, "chain")
        assert dev < 1e-10

    def test_full_k4_equals_three(self, rng):
        g = rng.uniform(0.1, 4.0, size=4)
        total, dev = exchangeable_identity_check(g, "full")
        assert total == pytest.approx(3.0, abs=1e-10)

    @given(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_chain_identity_property(self, values):
        total, dev = exchangeable_identity_check(values, "chain")
        assert dev < 1e-9

    def test_deviation_bound_up_to_k8(self, rng):
        for k in range(2, 9):
            g = rng.uniform(0.5, 2.0, size=k)
            _, dev_chain = exchangeable_identity_check(g, "chain")
            _, dev_full = exchangeable_identity_check(g, "full")
            assert dev_chain < 1e-9 and dev_full < 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exchangeable_identity_check([1.0, 0.0], "chain")

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            exchangeable_identity_check(np.ones(9), "chain")


class TestTwoSample:
    def test_same_law_accepts(self):
        a = replica_rng(151).random(5000)
        b = replica_rng(157).random(5000)
        assert ks_two_sample(a, b).p_value > 0.01

    def test_shifted_rejects(self):
        a = replica_rng(163).random(5000)
        b = replica_rng(167).random(5000) + 0.08
        assert ks_two_sample(a, b).p_value < 1e-6
