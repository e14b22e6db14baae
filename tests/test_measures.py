import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcplab.budget import BudgetError
from hcplab.laws import ExpGeometricLaw, GeometricLaw, two_point_law
from hcplab.measures import (AtomicMeasure, MeasureError, _coalesce, _convolve_outer,
                             _dyadic_spacing, _fft_convolve, convolve, dirac,
                             epoch_pushforward, iterate_hcp_measures,
                             survival_probability_exact)
from hcplab.transport import c0_estimate, default_c0_grid

from oracles import epoch_pushforward_series, geometric_atomic_full

EAST = lambda n: 2.0 ** (n - 1)


def assert_matches_series(mu, d_min, d_max):
    """epoch_pushforward against the two-series oracle, atom by atom within
    1e-12 relative plus 1e-15 (an atom one side drops counts as mass 0)."""
    new = epoch_pushforward(mu, d_min, d_max)
    old = epoch_pushforward_series(mu, d_min, d_max)
    pos = np.concatenate((new.positions, old.positions))
    _, diff = _coalesce(pos, np.concatenate((new.masses, -old.masses)))
    _, both = _coalesce(pos, np.concatenate((new.masses, old.masses)))
    assert np.all(np.abs(diff) <= 1e-12 * both / 2 + 1e-15)
    assert new.total_mass == pytest.approx(old.total_mass, abs=1e-12)
    assert new.deficit == pytest.approx(old.deficit, abs=1e-12)
    return new


class TestAtomicMeasure:
    def test_invariants(self):
        m = AtomicMeasure([1.0, 2.0], [0.25, 0.5], l_max=10.0)
        assert m.finite_mass == 0.75
        with pytest.raises(MeasureError):
            AtomicMeasure([-1.0], [0.5], l_max=10.0)
        with pytest.raises(MeasureError, match="negative atom mass"):
            AtomicMeasure([1.0], [-0.5], l_max=10.0)
        with pytest.raises(MeasureError):
            AtomicMeasure([20.0], [0.5], l_max=10.0)

    def test_negative_mass_names_plain_position(self):
        with pytest.raises(MeasureError) as err:
            AtomicMeasure([1.0, 2.0], [1.5, -0.5], l_max=10.0)
        assert str(err.value) == "negative atom mass at position 2.0"

    def test_duplicate_positions_coalesce(self):
        m = AtomicMeasure([1.0, 1.0, 2.0], [0.2, 0.3, 0.5], l_max=10.0)
        assert m.n_atoms == 2
        assert m.mass_on(0.5, 1.5) == pytest.approx(0.5)

    def test_transform_derivative_is_weighted_transform(self):
        m = AtomicMeasure([1.0, 3.0], [0.5, 0.5], l_max=10.0)
        s = 0.7
        expected = -(1.0 * 0.5 * math.exp(-s) + 3.0 * 0.5 * math.exp(-3 * s))
        assert m.transform_derivative(s) == pytest.approx(expected, rel=1e-14)


    @pytest.mark.parametrize("method", ["transform", "transform_derivative",
                                        "one_minus_transform"])
    def test_transform_holds_one_matrix(self, method):
        # the README config's c0 view against the c0 grid: one s row of the
        # (s, atoms) grid at a time, with the values of the expressions that
        # built a second row to negate it; the whole grid's matrix product
        # sums each row in another order, a few ulp away
        m = GeometricLaw(0.1).atomic(51200.0).normalized()
        s = default_c0_grid()
        fn, weights, sign, deficit = {
            "transform": (np.exp, m.masses, 1.0, 0.0),
            "transform_derivative": (np.exp, m.positions * m.masses, -1.0, 0.0),
            "one_minus_transform": (np.expm1, m.masses, -1.0, m.deficit)}[method]
        old = lambda s: sign * np.array([fn(-np.outer(v, m.positions))[0] @ weights
                                         for v in np.atleast_1d(s)]) + deficit
        tracemalloc.start()
        try:
            out = getattr(m, method)(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * m.n_atoms * 8, peak / (m.n_atoms * 8)
        assert out.tobytes() == old(s).tobytes()
        assert getattr(m, method)(float(s[3])) == float(old(s[3])[0])
        whole = sign * (fn(-np.outer(s, m.positions)) @ weights) + deficit
        np.testing.assert_array_max_ulp(out, whole, maxulp=16)

    @pytest.mark.parametrize("method", ["transform", "transform_derivative",
                                        "one_minus_transform"])
    def test_transform_grid_in_row_blocks(self, monkeypatch, method):
        # the README c0 grid gives the same bits at the default budget and at
        # budgets of one row and a few: each row is its own dot product
        m = GeometricLaw(0.1).atomic(51200.0).normalized()
        s = default_c0_grid()
        default = getattr(m, method)(s)
        for rows in (1, 10, 100):
            # 9 bytes per grid point and atom, for the block and one row of weights
            monkeypatch.setattr("hcplab.budget.BUDGET_BYTES", 9 * m.n_atoms * (rows + 1))
            assert getattr(m, method)(s).tobytes() == default.tobytes()

    def test_c0_estimate_independent_of_budget(self, monkeypatch):
        # c0_estimate and the three transforms it reads, at the default
        # budget and at a budget of one row; blocks of rows as many as fit
        # once moved the transforms by up to 12 ulp
        s = default_c0_grid()

        def bits(law):
            return ([f(s).tobytes() for f in (law.transform, law.transform_derivative,
                                              law.one_minus_transform)], c0_estimate(law, s))

        for law in (GeometricLaw(0.1).atomic(51200.0), GeometricLaw(0.01).atomic(3000.0),
                    ExpGeometricLaw(0.5).atomic(60, l_max=1e40)):
            default = bits(law)
            monkeypatch.setattr("hcplab.budget.BUDGET_BYTES", 9 * law.n_atoms * 2)
            assert bits(law) == default
            monkeypatch.undo()


class TestConvolve:
    def test_dirac_dirac(self):
        out = convolve(dirac(1.0, 10.0), dirac(1.0, 10.0))
        assert np.array_equal(out.positions, [2.0])
        assert np.array_equal(out.masses, [1.0])

    def test_binomial_expansion(self):
        half = AtomicMeasure([1.0, 2.0], [0.5, 0.5], l_max=10.0)
        out = convolve(half, half)
        assert np.allclose(out.positions, [2.0, 3.0, 4.0])
        assert np.allclose(out.masses, [0.25, 0.5, 0.25])

    def test_truncation_moves_mass_to_deficit(self):
        out = convolve(dirac(3.0, 5.0), dirac(3.0, 5.0))
        assert out.n_atoms == 0
        assert out.deficit == pytest.approx(1.0)

    def test_irrational_positions_use_generic_path(self):
        a = AtomicMeasure([math.e, math.e ** 2], [0.7, 0.3], l_max=100.0)
        out = convolve(a, a)
        assert out.n_atoms == 3  # e+e, e+e^2 (twice, coalesced), e^2+e^2
        assert out.finite_mass == pytest.approx(1.0)

    @given(w1=st.floats(0.1, 1.0), w2=st.floats(0.1, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_total_mass_multiplicative(self, w1, w2):
        a = AtomicMeasure([1.0, 4.0], [w1 / 2, w1 / 2], l_max=6.0)
        b = AtomicMeasure([1.0, 3.0], [w2 / 2, w2 / 2], l_max=6.0)
        out = convolve(a, b)
        assert out.total_mass == pytest.approx(w1 * w2, rel=1e-12)

    def test_dyadic_spacing(self):
        assert _dyadic_spacing(np.array([1.0 / 3.0])) == 2.0 ** -54
        assert _dyadic_spacing(np.array([6.0])) == 2.0
        assert _dyadic_spacing(np.array([0.25, 7.0])) == 0.25
        assert _dyadic_spacing(np.array([3 * 2.0 ** -1074])) == 2.0 ** -1074  # subnormal

    @given(exponent=st.integers(-6, 1),
           idx1=st.lists(st.integers(1, 256), min_size=1, max_size=12, unique=True),
           idx2=st.lists(st.integers(1, 256), min_size=1, max_size=12, unique=True),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dense_route_matches_pairwise_sums(self, exponent, idx1, idx2, seed):
        # oracle for the dense route: every atom pair summed and coalesced;
        # on a dyadic lattice both form the exact sums, so positions agree
        # bit for bit and masses up to summation order
        spacing = 2.0 ** exponent
        rng = np.random.default_rng(seed)
        a = AtomicMeasure(np.sort(idx1) * spacing, rng.uniform(0.01, 1.0, len(idx1)), 256 * spacing)
        b = AtomicMeasure(np.sort(idx2) * spacing, rng.uniform(0.01, 1.0, len(idx2)), 256 * spacing)
        with mock.patch("hcplab.measures._convolve_outer",
                        side_effect=AssertionError("took the outer route")):
            out = convolve(a, b)
        pos, mas, overflow = _convolve_outer(a, b, a.l_max)
        assert np.array_equal(out.positions, pos)
        np.testing.assert_allclose(out.masses, mas, rtol=1e-13)
        assert out.deficit == pytest.approx(overflow, rel=1e-13, abs=1e-300)

    def test_dense_route_on_coarsest_lattice(self):
        # {1.5, 3} has dyadic spacing 0.5, but the gcd of its indices 3 and 6
        # puts it on spacing 1.5: three cells per operand, not seven
        a = AtomicMeasure([1.5, 3.0], [0.25, 0.75], l_max=10.0)
        with mock.patch("numpy.convolve", wraps=np.convolve) as spy:
            out = convolve(a, a)
        assert [v.size for v in spy.call_args.args] == [3, 3]
        pos, mas, overflow = _convolve_outer(a, a, a.l_max)
        assert np.array_equal(out.positions, pos) and overflow == out.deficit == 0.0
        np.testing.assert_allclose(out.masses, mas, rtol=1e-15)

    @given(n1=st.integers(1, 5000), n2=st.integers(1, 5000),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fft_helper_matches_direct(self, n1, n2, seed):
        # nonnegative operands, as masses and densities are
        rng = np.random.default_rng(seed)
        a, b = rng.random(n1), rng.random(n2)
        direct = np.convolve(a, b)
        out = _fft_convolve(a, b)
        assert out.shape == direct.shape
        assert np.max(np.abs(out - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_convolution_power(self):
        half = AtomicMeasure([1.0, 2.0], [0.5, 0.5], l_max=20.0)
        cubed = convolve(convolve(half, half), half)
        # binomial masses over {3, 4, 5, 6}
        assert np.allclose(cubed.positions, [3.0, 4.0, 5.0, 6.0])
        assert np.allclose(cubed.masses, [1 / 8, 3 / 8, 3 / 8, 1 / 8])


class TestEpochPushforward:
    def test_unit_law_closed_form(self):
        out = epoch_pushforward(dirac(1.0, 40.0), 1.0, 2.0)
        for k in range(2, 8):
            expected = (k - 1) / math.factorial(k)
            assert out.mass_on(k - 0.5, k + 0.5) == pytest.approx(expected, rel=1e-12)
        assert out.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_no_active_mass_is_identity(self):
        mu = AtomicMeasure([2.0, 3.0], [0.5, 0.5], l_max=20.0)
        out = epoch_pushforward(mu, 1.0, 2.0)
        assert np.array_equal(out.positions, mu.positions)
        assert np.array_equal(out.masses, mu.masses)

    def test_transform_identity(self, rng):
        mu = AtomicMeasure([1.0, 1.5, 2.5, 4.0], [0.3, 0.3, 0.2, 0.2], l_max=60.0)
        out = epoch_pushforward(mu, 1.0, 2.0)
        s = rng.uniform(0.05, 3.0, size=20)
        lhs = 1.0 - out.transform(s)
        h = mu.restricted(1.0, 2.0)
        rhs = (1.0 - mu.transform(s)) * np.exp(h.transform(s))
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-10

    def test_support_shifts_to_d_max(self):
        mu = AtomicMeasure([1.0, 1.25, 1.5, 2.0], [0.25] * 4, l_max=50.0)
        out = epoch_pushforward(mu, 1.0, 2.0)
        assert out.positions[0] >= 2.0 * (1 - 1e-12)

    def test_mean_growth_factor(self):
        # differentiating the one-epoch transform identity at 0 gives
        # mean_out = mean_in * exp(active mass)
        mu = AtomicMeasure([1.0, 2.0, 3.0], [0.5, 0.3, 0.2], l_max=200.0)
        out = epoch_pushforward(mu, 1.0, 2.0)
        assert out.mean() == pytest.approx(mu.mean() * math.exp(0.5), rel=1e-9)

    def test_rejects_bad_range(self):
        with pytest.raises(MeasureError):
            epoch_pushforward(dirac(1.0, 10.0), 1.0, 3.0)
        with pytest.raises(MeasureError):
            epoch_pushforward(dirac(0.5, 10.0), 1.0, 2.0)

    def test_series_atom_budget(self, monkeypatch):
        # dirac(1) on [1, 2) holds mu (1 atom) and one atom for each of the 20
        # terms of E (the last with 1/20! < 1e-18); mu_in is empty.  Half
        # masses at 1 and 3 hold mu (2 atoms), 16 terms of E and mu_in * E
        # (16 atoms), which the check after the series counts.  Each
        # convolution counts the 90 bytes of every atom held so far into its
        # request, here 87 bytes a pair on the outer route, so the series
        # check refuses only within 3 bytes of each atom the convolution made.
        half = AtomicMeasure([1.0, 3.0], [0.5, 0.5], l_max=40.0)
        series = (r"the pushforward series of the epoch on \[1\.0, 2\.0\), holding {} atoms "
                  r"after {} terms, needs [0-9.e-]+ MiB at 90 bytes each, above the memory "
                  r"budget of [0-9.e-]+ MiB; lower analytic\.l_max, now 40\.0, or epochs$")
        pairs = (r"the off-lattice convolution of 1 x {} atoms beside {:.4g} MiB held needs "
                 r"[0-9.e-]+ MiB at 87 bytes each, above the memory budget of [0-9.e-]+ MiB; "
                 r"lower analytic\.l_max, now 40\.0$")
        for mu, fits, atoms_out, cases in (
                (dirac(1.0, 40.0), 21, 19, ((1889, series.format(21, 20)),
                                            (1886, pairs.format(1, 20 * 90 / 2**20)))),
                (half, 34, 18, ((3059, series.format(34, 16)),
                                (3011, pairs.format(16, 18 * 90 / 2**20)),
                                (1619, series.format(18, 16)),
                                (1616, pairs.format(1, 17 * 90 / 2**20))))):
            # the budget in bytes: atoms times the 90 bytes per atom the series states
            monkeypatch.setattr("hcplab.budget.BUDGET_BYTES", fits * 90)
            assert epoch_pushforward(mu, 1.0, 2.0).n_atoms == atoms_out
            for budget_bytes, message in cases:
                monkeypatch.setattr("hcplab.budget.BUDGET_BYTES", budget_bytes)
                with pytest.raises(BudgetError, match="^" + message):
                    epoch_pushforward(mu, 1.0, 2.0)

    def test_one_convolution_with_mu(self, monkeypatch):
        # the powers h^{*2}, h^{*3}, ..., then one convolution of mu on
        # [d_max, inf), deficit included, with E
        calls = []

        def counted(m1, m2, held):
            calls.append(m1)
            return convolve(m1, m2, held)

        monkeypatch.setattr("hcplab.measures.convolve", counted)
        epoch_pushforward(dirac(1.0, 40.0), 1.0, 2.0)
        assert len(calls) == 20
        assert calls[-1].n_atoms == 0
        calls.clear()
        epoch_pushforward(AtomicMeasure([1.0, 3.0], [0.5, 0.4], 40.0, deficit=0.1), 1.0, 2.0)
        assert len(calls) == 16
        mu_in = calls[-1]
        assert mu_in.positions.tolist() == [3.0] and mu_in.masses.tolist() == [0.4]
        assert mu_in.deficit == 0.1

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_series_oracle_on_lattice(self, seed):
        r = np.random.default_rng(seed)
        spacing = 2.0 ** -int(r.integers(0, 4))
        n = int(r.integers(1, 8))
        pos = 1.0 + spacing * np.sort(r.choice(np.arange(int(7 / spacing)), n, replace=False))
        mas = r.random(n)
        mu = AtomicMeasure(pos, mas / mas.sum(), l_max=64.0)
        for epoch in range(1, 4):
            mu = assert_matches_series(mu, EAST(epoch), EAST(epoch + 1))

    @given(b=st.sampled_from([math.sqrt(2.0), 1.1]), p_a=st.floats(0.05, 0.95))
    @settings(max_examples=6, deadline=None)
    def test_matches_series_oracle_off_lattice(self, b, p_a):
        mu = two_point_law(1.0, b, p_a).atomic(24.0)
        for epoch in range(1, 4):
            mu = assert_matches_series(mu, EAST(epoch), EAST(epoch + 1))

    def test_deep_iteration_matches_series_oracle(self):
        mu = dirac(1.0, 4096.0)
        for epoch in range(1, 9):
            mu = assert_matches_series(mu, EAST(epoch), EAST(epoch + 1))
            assert np.all(mu.masses > 0)
            assert mu.positions[0] >= EAST(epoch + 1) * (1 - 1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_conservation_random_lattice(self, seed):
        r = np.random.default_rng(seed)
        spacing = float(r.choice([0.25, 0.5, 1.0]))
        d_min = spacing * int(r.integers(1, 4))
        d_max = d_min * float(r.uniform(1.2, 2.0))
        pos = d_min + spacing * np.sort(r.choice(np.arange(30), 8, replace=False))
        mas = r.random(8)
        mu = AtomicMeasure(pos, mas / mas.sum(), l_max=60.0 * d_min)
        out = epoch_pushforward(mu, d_min, d_max)
        assert abs(out.total_mass - 1.0) < 1e-12
        if out.n_atoms:
            assert out.positions[0] >= d_max * (1 - 1e-9)


class TestIteration:
    def test_unit_law_active_masses(self):
        laws, h = iterate_hcp_measures(dirac(1.0, 100.0), EAST, 2)
        assert h[0] == pytest.approx(1.0)
        assert h[1] == pytest.approx(5.0 / 6.0, rel=1e-12)

    def test_inactive_first_epoch(self):
        mu = AtomicMeasure([2.0, 4.0], [0.5, 0.5], l_max=50.0)
        laws, h = iterate_hcp_measures(mu, EAST, 2)
        assert h[0] == 0.0
        assert np.array_equal(laws[1].positions, mu.positions)

    def test_mass_conserved_every_epoch(self):
        laws, _ = iterate_hcp_measures(dirac(1.0, 300.0), EAST, 6)
        for mu in laws:
            assert mu.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_laws_carry_deficits(self):
        # dirac(1) ends epoch 1 at length k >= 2 with probability (k-1)/k!, so
        # l_max = 6 cuts off sum_{k>=7} (k-1)/k! = 1/6!
        laws, _ = iterate_hcp_measures(dirac(1.0, 6.0), EAST, 3)
        assert laws[0].deficit == 0.0
        assert laws[1].deficit == pytest.approx(1.0 / 720.0, rel=1e-12)
        assert laws[2].deficit > laws[1].deficit
        for mu in laws:
            assert mu.total_mass == pytest.approx(1.0, abs=1e-12)


class TestSurvival:
    def test_unit_law_values(self):
        _, h = iterate_hcp_measures(dirac(1.0, 100.0), EAST, 3)
        assert survival_probability_exact(h, 1, 0.0) == pytest.approx(math.exp(-1.0))
        assert survival_probability_exact(h, 2, 0.0) == pytest.approx(math.exp(-11.0 / 6.0))

    def test_large_gamma_saturates(self):
        assert survival_probability_exact([1.0, 1.0], 2, 1e12) == pytest.approx(1.0)

    def test_argument_checks(self):
        with pytest.raises(ValueError):
            survival_probability_exact([1.0], 2, 0.0)
        with pytest.raises(ValueError):
            survival_probability_exact([1.0], 1, -0.5)


class TestExpGeometricLaw:
    def test_first_atom_matches_parameter(self):
        p = 1.0 - math.exp(-0.5)
        law = ExpGeometricLaw(p).atomic(10)
        assert law.positions[0] == pytest.approx(math.e)
        assert law.masses[0] == pytest.approx(p)

    def test_single_atom_deficit(self):
        law = ExpGeometricLaw(0.3).atomic(1)
        assert law.n_atoms == 1
        assert law.deficit == pytest.approx(0.7)

    def test_mass_plus_deficit_is_one(self):
        law = ExpGeometricLaw(0.42).atomic(37, l_max=1e20)
        assert law.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_mean_regimes(self):
        # the mean is finite iff (1-p) e < 1; p = 1 - e^-1/2 is the oscillating
        # regime of criterion 8, p = 0.9 (lambda = 2.3) a finite-mean law
        assert ExpGeometricLaw(1.0 - math.exp(-0.5)).mean == math.inf
        assert ExpGeometricLaw(0.9).mean == pytest.approx(0.9 * math.e / (1 - 0.1 * math.e))


class TestGeometricAtomic:
    # q = 0.1 underflows past k ~ 7,052 and q = 0.5 past k ~ 1,075; the
    # l_max grid puts the cut on both sides of the last positive atom
    @pytest.mark.parametrize("q, l_max", [(0.1, 12800.0), (0.5, 2048.0), (1.0, 8.0)]
                             + [(q, l_max) for q in (0.1, 0.5, 0.9)
                                for l_max in (1e3, 1e4, 1e5)])
    def test_drops_only_zero_mass_atoms(self, q, l_max):
        law = GeometricLaw(q).atomic(l_max)
        full = geometric_atomic_full(q, l_max)
        assert np.all(law.masses > 0.0)
        keep = full.masses > 0.0
        np.testing.assert_array_equal(law.positions, full.positions[keep])
        np.testing.assert_array_equal(law.masses, full.masses[keep])
        assert (law.l_max, law.deficit) == (full.l_max, full.deficit)

    @pytest.mark.parametrize("q, l_max", [(0.1, 12800.0), (0.5, 2048.0)])
    def test_pushforward_and_c0_match_full_grid(self, q, l_max):
        law = GeometricLaw(q).atomic(l_max)
        full = geometric_atomic_full(q, l_max)
        assert law.n_atoms < full.n_atoms
        a = epoch_pushforward(law, 1.0, 2.0)
        b = epoch_pushforward(full, 1.0, 2.0)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.masses, b.masses)
        assert a.deficit == b.deficit
        grid = default_c0_grid()
        est, ref = c0_estimate(law, grid), c0_estimate(full, grid)
        assert (est.estimate, est.converged) == (ref.estimate, ref.converged)
        # the tail ratio -s g'(s) / (1 - g(s)) that c0_estimate reads
        ratios = [-grid * m.transform_derivative(grid) / m.one_minus_transform(grid)
                  for m in (law, full)]
        np.testing.assert_allclose(*ratios, rtol=1e-13, atol=0.0)
