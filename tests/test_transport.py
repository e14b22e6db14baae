import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc

import hcplab.transport
from hcplab.laws import ExpGeometricLaw, GeometricLaw, ParetoHalfLaw, two_point_law
from hcplab.measures import (AtomicMeasure, _coalesce, dirac, epoch_pushforward,
                             iterate_hcp_measures)
from hcplab.schedule import ArithmeticThresholds
from hcplab.transport import (TransportRangeError, _deconvolve_series, _lattice_blocks,
                              _read, _ring_sites, c0_estimate, deconvolve_m, default_c0_grid,
                              figb_ratios, reassemble_z_law, u1_on_lattice, u1_reader,
                              un_transport)

from oracles import (StepFunction, deconvolve_m_intervals, u1_lattice_blocks,
                     u1_on_lattice_whole, u1_step_function, un_transport_step)

EAST = lambda n: 2.0 ** (n - 1)


class TestDeconvolve:
    def test_support_below_two_is_identity(self):
        p = AtomicMeasure([1.0, 1.5, 1.9], [0.4, 0.4, 0.2], l_max=10.0)
        m = deconvolve_m(p, 8.0)
        below = m.restricted(1.0, 2.0)
        assert np.allclose(below.positions, p.positions)
        assert np.allclose(below.masses, p.masses)

    def test_unit_law_gives_harmonic_masses(self):
        m = deconvolve_m(dirac(1.0, 16.0), 16.0)
        assert np.allclose(m.positions, np.arange(1, 16))
        assert np.allclose(m.masses, 1.0 / np.arange(1, 16))

    def test_unit_law_transform_inversion_oracle(self):
        # independent oracle for the series inversion: exp(-m_hat(s)) must
        # reproduce 1 - g(s), which for the unit law is 1 - e^{-s}
        m = deconvolve_m(dirac(1.0, 40.0), 40.0)
        for s in (0.8, 1.3, 2.1):
            assert math.exp(-m.transform(s)) == pytest.approx(-math.expm1(-s), rel=1e-10)

    def test_round_trip(self):
        z1 = epoch_pushforward(dirac(1.0, 48.0), 1.0, 2.0).rescaled(2.0)
        m = deconvolve_m(z1, 24.0)
        back = reassemble_z_law(m, 24.0)
        grid = np.arange(1.0, 23.5, 0.25)
        assert np.max(np.abs(back.cdf(grid) - z1.cdf(grid))) < 1e-10

    def test_round_trip_on_a_non_dyadic_lattice(self):
        # 1 and 5/3 lie on the lattice of 1/3, which no power of two divides
        p = AtomicMeasure([1.0, 5.0 / 3.0], [0.5, 0.5], l_max=10.0)
        back = reassemble_z_law(deconvolve_m(p, 9.0), 9.0)
        assert back.total_mass == pytest.approx(1.0, abs=1e-12)
        grid = np.arange(1.0, 9.0, 1.0 / 24.0)
        assert np.max(np.abs(back.cdf(grid) - p.cdf(grid))) < 1e-10

    def test_rejects_support_below_one(self):
        from hcplab.measures import MeasureError
        with pytest.raises(MeasureError):
            deconvolve_m(AtomicMeasure([0.5], [1.0], l_max=5.0), 5.0)


def _assert_same_atoms(a, b, rtol, atol):
    """Masses agree on the union of both atom sets, a missing atom counting
    as mass 0: |a - b| <= rtol * b + atol at every position."""
    both = np.concatenate((a.positions, b.positions))
    pos, _ = _coalesce(both, np.zeros(both.size))
    a_mass = np.zeros(pos.size)
    b_mass = np.zeros(pos.size)
    a_mass[np.searchsorted(pos, a.positions * (1 - 1e-12))] = a.masses
    b_mass[np.searchsorted(pos, b.positions * (1 - 1e-12))] = b.masses
    bad = np.abs(a_mass - b_mass) > rtol * b_mass + atol
    assert not np.any(bad), (pos[bad], a_mass[bad], b_mass[bad])


@st.composite
def z_laws(draw):
    """A law on [1, j_max) with j_max <= 16, with an optional deficit: on a
    dyadic lattice, on the lattice of a spacing no power of two divides, or
    on 2-3 free float positions."""
    j_max = draw(st.sampled_from([2.0, 3.5, 6.0, 9.0, 12.5, 16.0]))
    kind = draw(st.sampled_from(["dyadic", "non-dyadic", "free"]))
    if kind != "free":
        spacing = draw(st.sampled_from([1.0, 0.5, 0.25, 0.125] if kind == "dyadic"
                                       else [1.0 / 3.0, 0.1, 0.3]))
        top = int(math.ceil(j_max / spacing - 1e-9)) - 1
        lo = int(math.ceil(1.0 / spacing - 1e-9))
        idx = draw(st.lists(st.integers(lo, top), min_size=1, max_size=6, unique=True))
        positions = np.array(sorted(idx)) * spacing
    else:
        raw = draw(st.lists(st.floats(1.0, min(j_max, 4.0), exclude_max=True),
                            min_size=2, max_size=3, unique=True))
        positions = np.array(sorted(raw))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=positions.size,
                                     max_size=positions.size)))
    total = draw(st.sampled_from([1.0, 0.7]))
    masses = total * weights / weights.sum()
    return AtomicMeasure(positions, masses, l_max=j_max + 1.0), j_max


class TestDeconvolveOracle:
    # The interval recursion forms its powers from pairwise atom sums, so it
    # follows the float positions exactly.
    @given(case=z_laws())
    @settings(max_examples=60, deadline=None)
    def test_matches_interval_recursion(self, case):
        p, j_max = case
        # an absolute floor next to the relative tolerance: on fine lattices
        # convolve takes its FFT route, whose round-off (~1e-17 here) can
        # leave or remove atoms of that size
        _assert_same_atoms(deconvolve_m(p, j_max), deconvolve_m_intervals(p, j_max),
                           rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("r", [1.0 / 3.0, 2.0 / 3.0, 0.3, math.sqrt(2.0) - 1.0])
    @pytest.mark.parametrize("j_max", [9.0, 12.5])
    def test_two_point_law_closed_form(self, r, j_max):
        # p = 0.6 delta_1 + 0.4 delta_{1+r}: p^{*k} puts C(k,b) 0.6^(k-b) 0.4^b
        # at k + b*r, so m = sum_k p^{*k}/k is known atom by atom; the
        # rounded position only keys the atoms that coincide.
        exact = {}
        for k in range(1, int(j_max) + 1):
            for b in range(k + 1):
                x = k + b * r
                if x < j_max:
                    key = round(x, 9)
                    mass = exact.get(key, (x, 0.0))[1]
                    exact[key] = (x, mass + math.comb(k, b) * 0.6 ** (k - b) * 0.4 ** b / k)
        m = deconvolve_m(AtomicMeasure([1.0, 1.0 + r], [0.6, 0.4], l_max=j_max + 1.0), j_max)
        xs, masses = zip(*(exact[key] for key in sorted(exact)))
        np.testing.assert_allclose(m.positions, xs, rtol=1e-14)
        np.testing.assert_allclose(m.masses, masses, rtol=1e-12)

    def test_non_lattice_law_convolution_count(self, monkeypatch):
        # the interval recursion made O(j_max^2) convolutions on a growing
        # atom set; the log series makes one per power below j_max
        calls = []
        real = hcplab.transport.convolve

        def counting(m1, m2):
            calls.append(1)
            return real(m1, m2)

        monkeypatch.setattr(hcplab.transport, "convolve", counting)
        p = two_point_law(1.0, math.sqrt(2.0)).atomic(64.0)
        m = deconvolve_m(p, 64.0)
        assert len(calls) <= 64
        assert m.n_atoms > 1000 and m.positions[-1] < 64.0


def read_u1(m, x):
    """U1 of m at one argument, through ``u1_reader``."""
    return float(u1_reader(m)(np.array([x]), np.array([x]))[0][0])


@st.composite
def dyadic_laws(draw):
    """A law on [1, j_max) on a dyadic lattice, its atoms on every stride-th
    site only, so that a stride above 1 leaves sites no sum reaches; j_max
    on a site or between sites, and a deficit or a total below 1."""
    spacing = draw(st.sampled_from([1.0, 0.5, 0.25, 1 / 64]))
    stride = draw(st.sampled_from([1, 2, 3, 5]))
    j_max = draw(st.sampled_from([6.0, 8.0, 16.0, 40.0])) + draw(
        st.sampled_from([0.0, spacing / 2]))
    lo = int(math.ceil(1.0 / (spacing * stride)))
    top = min(int(math.ceil(j_max / (spacing * stride))) - 1, 4 * lo + 8)
    idx = draw(st.lists(st.integers(lo, top), min_size=1, max_size=8, unique=True))
    positions = np.array(sorted(idx)) * (spacing * stride)
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=positions.size,
                                     max_size=positions.size)))
    total, deficit = draw(st.sampled_from([(1.0, 0.0), (0.7, 0.0), (0.7, 0.3)]))
    law = AtomicMeasure(positions, total * weights / weights.sum(), l_max=j_max + 1.0,
                        deficit=deficit)
    return law, j_max


class TestInversionRoute:
    """deconvolve_m on a dyadic lattice solves on the ring; the private
    series it replaced there is the reference."""

    @given(case=dyadic_laws())
    @settings(max_examples=60, deadline=None)
    # one atom on a dyadic lattice of 12,801 sites, most of which no sum
    # reaches, and two atoms whose sums leave gaps on their coarsest lattice
    @example(case=(AtomicMeasure([105 / 64], [1.0], l_max=201.0), 200.0))
    @example(case=(AtomicMeasure([6.5, 7.0], [0.5, 0.5], l_max=17.0), 16.0))
    def test_ring_matches_series(self, case):
        p, j_max = case
        with mock.patch.object(hcplab.transport, "_deconvolve_series",
                               side_effect=AssertionError("took the series")):
            m = deconvolve_m(p, j_max)
        series = _deconvolve_series(p, j_max)
        _assert_same_atoms(m, series, rtol=1e-12, atol=1e-15)
        # no atom where no sum of the law's positions lies, none at or past
        # j_max, none of negative mass
        assert np.isin(m.positions, series.positions).all()
        assert m.positions[-1] < j_max and (m.masses > 0).all()

    def test_dense_eligible_law_makes_no_convolution(self, monkeypatch):
        calls = []
        real = hcplab.transport.convolve
        monkeypatch.setattr(hcplab.transport, "convolve",
                            lambda *args: calls.append(args) or real(*args))
        m = deconvolve_m(GeometricLaw(0.1).atomic(51200.0), 256.0)
        assert calls == [] and m.n_atoms == 255

    @pytest.mark.parametrize("b, j_max", [(math.sqrt(2.0), 12.0), (1.0 + 2.0 ** -20, 4.0)],
                             ids=["irrational", "lattice-2^-20"])
    def test_off_budget_laws_take_the_series(self, monkeypatch, b, j_max):
        # sqrt(2) lies on no coarse lattice; 2^-20 does, but j_max / 2^-20
        # cells at 76 bytes are past the budget.  Either way the series runs,
        # bit for bit.
        p = two_point_law(1.0, b).atomic(j_max)
        monkeypatch.setattr(hcplab.transport, "_lattice_blocks", None)  # never called
        m = deconvolve_m(p, j_max)
        series = _deconvolve_series(p, j_max)
        assert np.array_equal(m.positions, series.positions)
        assert np.array_equal(m.masses, series.masses)

    @pytest.mark.parametrize("law, closed", [
        (dirac(1.0, 4096.0), lambda k: 1.0 / k),
        (GeometricLaw(0.1).atomic(4096.0), lambda k: -np.expm1(k * math.log1p(-0.1)) / k),
        (GeometricLaw(0.5).atomic(4096.0), lambda k: -np.expm1(k * math.log1p(-0.5)) / k)],
        ids=["dirac", "geometric-0.1", "geometric-0.5"])
    def test_closed_forms_at_depth(self, law, closed):
        # m({k}) = sum_j P(S_j = k) / j: 1/k for the unit law, and
        # (1 - (1-q)^k)/k for geometric(q)
        m = deconvolve_m(law, 4096.0)
        k = np.arange(1.0, 4096.0)
        assert np.array_equal(m.positions, k)
        np.testing.assert_allclose(m.masses, closed(k), rtol=1e-12, atol=0.0)

    def test_small_lattice_solves_in_a_small_block(self):
        # 257 sites take a block of 512, not a fixed 8,192 whose resolvent
        # and FFT would hold about 450 KB
        law = dirac(1.0, 256.0)
        tracemalloc.start()
        try:
            deconvolve_m(law, 256.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, peak


class TestStepFunctionAndTransport:
    # U1 through u1_reader, checked against the listed-jump step function of
    # ``oracles`` with the same operators
    def test_unit_mass_step(self):
        m = dirac(1.0, 10.0)
        assert read_u1(m, -0.5) == 0.0 == u1_step_function(m)(-0.5)
        assert read_u1(m, 0.0) == 1.0 == u1_step_function(m)(0.0)
        assert read_u1(m, 3.7) == 1.0 == u1_step_function(m)(3.7)
        empty = AtomicMeasure([], [], l_max=10.0)
        assert read_u1(empty, 3.7) == 0.0 == u1_step_function(empty)(3.7)

    def test_jump_weighting(self):
        m = AtomicMeasure([2.0], [0.5], l_max=10.0)
        assert read_u1(m, 0.999) == 0.0 == u1_step_function(m)(0.999)
        assert read_u1(m, 1.0) == pytest.approx(1.0)  # weight y * mass = 2 * 0.5
        assert read_u1(m, 1.0) == u1_step_function(m)(1.0)

    def test_total_variation_is_first_moment(self):
        m = AtomicMeasure([1.0, 2.0, 3.5], [0.5, 0.25, 0.25], l_max=10.0)
        assert read_u1(m, 9.0) == pytest.approx(float(m.positions @ m.masses))
        assert read_u1(m, 9.0) == u1_step_function(m)(9.0)

    def test_linear_fixed_point(self):
        # a linear primitive is invariant under the epoch transport, up to
        # the staircase discretization bias O(step / d)
        step = 1.0 / 1024.0
        xs = np.arange(0.0, 150.0, step)
        u_lin = StepFunction(xs, 0.7 * (xs + step), domain_max=150.0)
        for d in (1.0, 2.0, 8.0, 64.0):
            val = un_transport(u_lin.read, d, 1.2)
            assert val == pytest.approx(0.7 * 1.2, abs=0.8 * step / d + 1e-12)
            assert val == un_transport_step(u_lin, d, 1.2)

    def test_identity_at_unit_scale(self):
        m = deconvolve_m(dirac(1.0, 16.0), 16.0)
        xs = np.array([0.2, 1.7, 3.3])
        assert un_transport(u1_reader(m), 1.0, xs) == pytest.approx(u1_step_function(m)(xs))

    def test_out_of_range_names_required_extent(self):
        with pytest.raises(TransportRangeError, match="j_max"):
            un_transport(u1_reader(dirac(1.0, 10.0)), 8.0, 10.0)

    def test_two_route_agreement(self):
        mu1 = dirac(1.0, 64.0)
        u1 = u1_reader(deconvolve_m(mu1, 64.0))
        laws, _ = iterate_hcp_measures(mu1, EAST, 4)
        xs = np.array([0.05, 0.3, 0.7, 1.2, 2.6])
        for n in (2, 3, 4):
            d = EAST(n)
            direct = u1_step_function(deconvolve_m(laws[n - 1].rescaled(d), 64.0 / d))
            assert np.all(np.abs(direct(xs) - un_transport(u1, d, xs)) < 1e-8)

    @pytest.mark.parametrize("m", [GeometricLaw(0.1).atomic(64.0),
                                   two_point_law(1.0, math.sqrt(2.0)).atomic(12.0)],
                             ids=["lattice", "irrational"])
    def test_vectorized_transport_equals_one_row_at_a_time(self, m):
        # rows of the analytic command's shape: every d_n of an east
        # schedule against every probe, negative ones included
        d, x = np.meshgrid([1.0, 2.0, 4.0, 8.0], [-1.0, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5])
        rows = d * (1 + x) - 1 <= m.l_max - 1
        got = un_transport(u1_reader(m), d[rows], x[rows])
        want = [un_transport_step(u1_step_function(m), dn, xn)
                for dn, xn in zip(d[rows].tolist(), x[rows].tolist())]
        assert got.tolist() == want


@st.composite
def lattice_recurrences(draw):
    # one law's sparse taps anywhere in [1, 2n], so some lie beyond the
    # lattice and most are not multiples of the smallest; the weights form a
    # subprobability as the masses of a law do
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taps = np.array(sorted(draw(st.lists(st.integers(1, 2 * n), min_size=1,
                                         max_size=12, unique=True))))
    weights = rng.random(taps.size) + 0.01
    weights /= weights.sum() * draw(st.floats(1.0, 4.0))
    base = rng.random(n) * (rng.random(n) < draw(st.floats(0.01, 1.0)))
    return base, taps, weights


class TestLatticeRoute:
    @given(case=lattice_recurrences(),
           block=st.sampled_from([1, 7, 64, hcplab.transport._LATTICE_BLOCK]))
    @settings(max_examples=60, deadline=None)
    def test_block_solve_matches_blocks(self, case, block):
        # block 1 has no in-block solve, 7 and 64 recurse on the resolvent
        # and cut the lattice at many block edges, and the ring wraps when
        # the largest tap and a block are well short of the lattice; the
        # FFT's round-off is absolute at the scale of the block's values
        base, taps, weights = case
        at = np.flatnonzero(base)
        c = np.concatenate([part.copy() for _, part in _lattice_blocks(
            base.size, taps, weights, at, base[at], block)])
        expect = u1_lattice_blocks(base, taps, weights)
        np.testing.assert_allclose(c, expect, rtol=1e-12,
                                   atol=1e-13 * np.abs(expect).max(initial=0.0))

    def test_agrees_with_interval_recursion(self):
        laws = [epoch_pushforward(dirac(1.0, 32.0), 1.0, 2.0).rescaled(2.0),
                AtomicMeasure([1.0, 1.5, 3.5], [0.5, 0.3, 0.2], l_max=32.0)]
        xs = np.linspace(0.0, 14.0, 57)
        for p in laws:
            u_lattice, left_lattice = u1_on_lattice(p, 0.5, 16.0, xs, xs)
            u_atomic = u1_step_function(deconvolve_m_intervals(p, 16.0))
            for x, u, left in zip(xs, u_lattice, left_lattice):
                assert u == pytest.approx(u_atomic(x), abs=1e-12)
                assert left == pytest.approx(u_atomic.left_limit(x), abs=1e-12)

    @given(spacing=st.one_of(st.sampled_from([1 / 16, 0.1, 1 / 3]),
                             st.floats(1e-3, 10.0)),
           n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_lattice_steps_match_listed_jumps(self, spacing, n, seed):
        # the jump count by bisection over sites formed as they are read,
        # against a step function that lists every site of the grid,
        # compared with ==; x / (1 +- 1e-15) puts the nudged argument on or
        # next to a site
        rng = np.random.default_rng(seed)
        grid = np.arange(n) * spacing - 1.0
        sizes = rng.random(n) * (rng.random(n) < 0.3)
        cumulative = np.cumsum(sizes)
        oracle = StepFunction(grid, cumulative, float(grid[-1]))
        site = lambda i: i * spacing - 1.0
        sites = grid[rng.integers(0, n, 200)]
        xs = np.concatenate((sites, np.nextafter(sites, -np.inf), np.nextafter(sites, np.inf),
                             sites / (1 + 1e-15), sites / (1 - 1e-15),
                             -1.0 - rng.random(20) * 5, [-np.inf, np.inf],
                             grid[-1] + spacing * rng.random(20) * 3))
        u, left = _read(n, site, [(0, sizes)], xs, xs)
        assert np.array_equal(u, oracle(xs))
        assert np.array_equal(left, oracle.left_limit(xs))
        for x in xs[::37].tolist():
            u, left = _read(n, site, [(0, sizes)], x, x)
            assert (u[0], left[0]) == (oracle(x), oracle.left_limit(x))

    def test_peak_bytes_per_site_of_one_law(self):
        # reproduce-figb's default laws at horizon 14, one ring at a time: a
        # law's ring holds 8 bytes per site, and the solve adds little beyond
        # it; the largest tap below the lattice is e^11 / spacing
        horizon, x, spacing = 14, 10.0, 1 / 16
        block = hcplab.transport._LATTICE_BLOCK
        top = round(math.exp(11) / spacing)
        ring = -(-(top + block) // block) * block
        assert ring == 966_656 < (2.0 ** (horizon - 1) * (1 + x) + 2) / spacing
        tracemalloc.start()
        try:
            figb_ratios((0.1, 0.5, 0.8), horizon, x, spacing, EAST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / ring <= 9, peak / ring

    def test_oscillating_law_ratio_sequence(self):
        # geometric-exponent law: finite-mean parameter converges to 1, the
        # infinite-mean parameters keep oscillating
        ratios = dict(zip((0.1, 0.8), figb_ratios((0.1, 0.8), 12, 10.0, 1 / 16, EAST)))
        assert all(abs(v - 1) < 0.02 for v in ratios[0.1][-4:])
        window = ratios[0.8][-8:]
        assert max(window) - min(window) > 0.02


@st.composite
def lattice_laws(draw):
    """A law snapped to a lattice of n sites, solved in blocks of ``block``:
    n below a block, n not a multiple of it, and lattices many blocks long
    whose largest tap and a block are short of n, so that the ring wraps.
    Atoms lie near sites 1 .. 2n, some at or beyond n, two sometimes at one
    site, and some of mass 0."""
    block = draw(st.sampled_from([1, 4, 16, 64, hcplab.transport._LATTICE_BLOCK]))
    spacing = draw(st.sampled_from([1 / 16, 0.1, 1 / 3, 0.5]))
    n = draw(st.integers(2, min(40 * block, 60_000)))
    top = draw(st.integers(1, n - 1))  # the largest tap below n
    idx = sorted(set(draw(st.lists(st.integers(1, 2 * n), max_size=8))) | {top})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = (np.array(idx) + rng.uniform(-0.4, 0.4, len(idx))) * spacing
    if draw(st.booleans()):  # a second atom rounding to the first one's site
        pos = np.sort(np.append(pos, pos[0] + 0.01 * spacing))
    mass = rng.random(pos.size) * (rng.random(pos.size) < 0.9)
    mass[pos == pos.min()] = 0.1  # some mass at a site below n
    mass *= 0.9 / mass.sum()
    # j_max so that the lattice has n sites, i * spacing for i < n
    j_max = (n - 1 + 0.5) * spacing
    return AtomicMeasure(pos, mass, l_max=math.inf), spacing, j_max, block


class TestStreamingRoute:
    """The ring solve against the whole lattice it replaced, bit for bit."""

    @staticmethod
    def arguments(spacing, n, rng):
        # on, just below and just above sites, negative, and the last
        # argument j_max - 1 = domain_max
        grid = np.arange(n) * spacing - 1.0
        sites = grid[rng.integers(0, n, 40)]
        return np.concatenate((sites, np.nextafter(sites, -np.inf), np.nextafter(sites, np.inf),
                               sites / (1 + 1e-15), sites / (1 - 1e-15), -1.0 - rng.random(5),
                               [-0.5, 0.0, grid[-1], (n - 0.5) * spacing - 1.0]))

    @given(case=lattice_laws(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    @example(case=(AtomicMeasure([0.5, 2.55 * 16 * 0.5], [0.5, 0.4], l_max=math.inf),
                   0.5, (160 - 0.5) * 0.5, 16), seed=0)
    def test_values_equal_the_whole_lattice(self, case, seed):
        # a lattice narrower than the block is solved in blocks of its
        # width rounded up to a power of two, and so is the oracle
        law, spacing, j_max, block = case
        n = int(math.floor(j_max / spacing)) + 1
        oracle = u1_on_lattice_whole(law, spacing, j_max, min(block, 1 << (n - 1).bit_length()))
        assert oracle.cumulative.size == n
        xs = self.arguments(spacing, n, np.random.default_rng(seed))
        with mock.patch.object(hcplab.transport, "_LATTICE_BLOCK", block):
            u, left = u1_on_lattice(law, spacing, j_max, xs, xs[::-1])
        assert np.array_equal(u, oracle(xs))
        assert np.array_equal(left, oracle.left_limit(xs[::-1]))

    def test_example_ring_wraps(self):
        # the example above: 160 sites in blocks of 16, the largest tap 41,
        # so a ring of 64 sites that the tap's sources cross
        taps = np.array([1, 41])
        assert _ring_sites(160, taps, 16) == 64

    @pytest.mark.parametrize("d_of", [EAST, ArithmeticThresholds()], ids=["geometric",
                                                                         "arithmetic"])
    def test_figb_ratios_equal_transport_of_the_whole_lattice(self, d_of):
        horizon, x, spacing = 9, 10.0, 1 / 16
        j_max = d_of(horizon) * (1 + x) + 2
        n_atoms = int(math.log(j_max)) + 1
        qs = (0.1, 0.5, 0.8)
        n = int(math.floor(j_max / spacing)) + 1  # the arithmetic lattice is below a block
        expect = []
        for q in qs:
            whole = u1_on_lattice_whole(
                ExpGeometricLaw(1 - q).atomic(n_atoms, l_max=math.inf), spacing, j_max,
                min(1 << 13, 1 << (n - 1).bit_length()))
            expect.append([un_transport_step(whole, d_of(n), x) / x
                           for n in range(1, horizon + 1)])
        assert figb_ratios(qs, horizon, x, spacing, d_of) == expect


class TestC0Estimate:
    def test_unit_law(self):
        est = c0_estimate(dirac(1.0, 5.0), default_c0_grid())
        assert est.converged and abs(est.estimate - 1.0) < 1e-6

    def test_geometric_law(self):
        est = c0_estimate(GeometricLaw(0.3).atomic(256.0), default_c0_grid())
        assert est.converged and abs(est.estimate - 1.0) < 1e-3

    def test_pareto_half_tail(self):
        est = c0_estimate(ParetoHalfLaw(), default_c0_grid())
        assert est.converged
        assert abs(est.estimate - 0.5) < 0.02

    def test_pareto_matches_closed_form_ratio(self):
        # r(s) = (1/2) sqrt(pi s) erfc(sqrt(s)) / (1 - e^-s + sqrt(pi s) erfc(sqrt(s)))
        law = ParetoHalfLaw()
        s = 1e-4
        r = -s * law.transform_derivative(s)[0] / (1 - law.transform(s)[0])
        num = 0.5 * math.sqrt(math.pi * s) * erfc(math.sqrt(s))
        den = -math.expm1(-s) + math.sqrt(math.pi * s) * erfc(math.sqrt(s))
        assert r == pytest.approx(num / den, rel=1e-9)

    def test_oscillating_law_flagged(self):
        law = ExpGeometricLaw(1.0 - math.exp(-0.5)).atomic(120, l_max=float("inf"))
        est = c0_estimate(law, default_c0_grid())
        assert not est.converged

    def test_callable_pair_adapter(self):
        # any object with transform and transform_derivative serves: here e^-s
        class UnitTransform:
            transform = staticmethod(lambda s: np.exp(-s))
            transform_derivative = staticmethod(lambda s: -np.exp(-s))

        est = c0_estimate(UnitTransform(), default_c0_grid())
        assert est.converged and abs(est.estimate - 1.0) < 1e-6

    def test_rejects_zero_in_grid(self):
        with pytest.raises(ValueError):
            c0_estimate(dirac(1.0, 5.0), np.array([0.1, 0.0]))

    def test_estimates_stay_in_unit_interval(self):
        for law in (dirac(1.0, 5.0), GeometricLaw(0.5).atomic(128.0),
                    ExpGeometricLaw(0.5).atomic(60, l_max=1e40)):
            est = c0_estimate(law, default_c0_grid())
            assert 0.0 <= est.estimate <= 1.0
