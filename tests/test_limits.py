import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

import hcplab.limits
from hcplab.limits import (EULER_GAMMA, GRID_STEP, X_MAX, _z_grid, ein,
                           exp_integral, first_point_limit_transform,
                           g_infinity, limit_moment, z_cdf, z_density)
from hcplab.measures import AtomicMeasure, epoch_pushforward

from oracles import ein_series_scalar, rho_tables_direct, z_rho_series


class TestExpIntegral:
    def test_reference_values(self):
        assert exp_integral(1.0) == pytest.approx(0.2193839343955203, abs=1e-7)
        assert exp_integral(10.0) == pytest.approx(4.156968929685325e-06, abs=1e-9)

    def test_against_independent_quadrature(self):
        for s in (0.05, 0.4, 1.7, 6.0):
            oracle = quad(lambda t: math.exp(-t) / t, s, np.inf, limit=200)[0]
            assert exp_integral(s) == pytest.approx(oracle, rel=1e-10)

    def test_against_scipy(self):
        # the series below 1, the continued fraction from 1 up
        s = np.concatenate((np.geomspace(1e-8, 700.0, 400),
                            1.0 + np.array([-1e-3, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-3])))
        assert np.max(np.abs(exp_integral(s) - exp1(s)) / exp1(s)) <= 1e-14

    def test_small_s_logarithmic_behavior(self):
        for s in (1e-4, 1e-6):
            assert exp_integral(s) + math.log(s) + EULER_GAMMA == pytest.approx(s, rel=1e-3)

    def test_upper_bound(self):
        s = np.geomspace(1e-3, 30, 50)
        assert np.all(exp_integral(s) < np.exp(-s) / s)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_integral(0.0)
        with pytest.raises(ValueError):
            exp_integral(-1.0)


class TestEin:
    def test_identity_with_e1(self):
        for s in (0.2, 1.0, 4.0):
            assert ein(s) == pytest.approx(EULER_GAMMA + math.log(s) + exp1(s), rel=1e-12)

    def test_quadrature_oracle(self):
        for s in (0.3, 2.5):
            oracle = quad(lambda t: -math.expm1(-t) / t, 0, s)[0]
            assert ein(s) == pytest.approx(oracle, rel=1e-10)

    def test_vectorized_series_matches_scalar_loop(self):
        s = np.concatenate(([0.0, 1e-8, 1e-4], np.linspace(0.01, 0.999, 60)))
        ref = np.array([ein_series_scalar(float(v)) for v in s])
        assert np.all(np.abs(ein(s) - ref) <= 1e-14 * ref)

    def test_series_joins_e1_identity_at_one(self):
        s = np.array([0.9, 0.99, 0.999999, 1.0, 1.000001, 1.01, 1.1])
        identity = EULER_GAMMA + np.log(s) + exp1(s)
        assert np.max(np.abs(ein(s) - identity) / identity) < 1e-12


class TestGInfinity:
    def test_limits(self):
        # values follow from 1 - exp(-c0 * E1(1)) with E1(1) = 0.2193839...
        assert g_infinity(1.0, 0.0) == 1.0
        assert g_infinity(1.0, 1.0) == pytest.approx(1 - math.exp(-0.2193839343955203), abs=1e-6)
        assert g_infinity(0.5, 1.0) == pytest.approx(1 - math.exp(-0.5 * 0.2193839343955203), abs=1e-6)

    def test_degenerate_c0(self):
        assert g_infinity(0.0, 1.0) == 0.0
        assert g_infinity(0.0, 0.0) == 1.0

    def test_complete_monotonicity_probe(self):
        # divided differences on a geometric grid alternate in sign up to
        # order 4 for the transform of a positive law
        s = np.geomspace(0.05, 8.0, 60)
        table = [g_infinity(0.8, s)]
        for order in range(1, 5):
            prev = table[-1]
            num = prev[1:] - prev[:-1]
            den = s[order:] - s[:-order]
            table.append(num / den)
            sign = (-1.0) ** order
            assert np.all(sign * table[-1] >= -1e-12)


class TestZDensity:
    def test_rho2_closed_form(self):
        xs, tables = rho_tables_direct(8.0, 1.0 / 256.0, 3)
        mask = (xs > 2.0) & (xs < 8.0)
        exact = (2.0 / xs[mask]) * np.log(xs[mask] - 1.0)
        assert np.max(np.abs(tables[1][mask] - exact)) < 2e-5

    def test_rho3_against_double_quadrature(self):
        xs, tables = rho_tables_direct(8.0, 1.0 / 512.0, 3)

        def rho3(x):
            # integrate rho_2(y)/(x-y) with the kink at y=2 split out
            f = lambda y: (2.0 / y) * math.log(y - 1.0) / (x - y)
            return quad(f, 2.0, x - 1.0, points=[3.0], limit=200)[0]

        for x in (3.5, 4.25, 6.0):
            i = int(round((x - 0.0) / (1.0 / 512.0)))
            assert tables[2][i] == pytest.approx(rho3(x), abs=5e-6)

    def test_first_interval_is_reciprocal(self):
        # on [1, 2) the series truncates to the single term 1/x exactly;
        # off-node queries carry the linear-interpolation error of the table
        assert z_density(1.0, 1.5) == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert z_density(1.0, 1.01) == pytest.approx(1.0 / 1.01, abs=2e-6)

    def test_second_interval_value(self):
        expected = 1 / 2.5 - 0.5 * (2 / 2.5) * math.log(1.5)
        assert z_density(1.0, 2.5) == pytest.approx(expected, abs=1e-5)

    def test_below_support(self):
        assert z_density(1.0, 0.7) == 0.0

    def test_normalization(self):
        xs = np.arange(1.0, 24.0, 1.0 / 512.0)
        total = np.trapezoid(z_density(1.0, xs), xs)
        assert total == pytest.approx(1.0, abs=1e-4)


class TestDelayEquation:
    """x z(x) = c0 (1 - F(x - 1)) solved one unit interval at a time."""

    @pytest.mark.parametrize("c0", [0.3, 0.5, 1.0])
    def test_matches_rho_series_oracle(self, c0):
        # the recurrence is causal, so its table up to 8 is the solution on
        # [0, 8] whatever the tabulated bound; x_max 8 keeps np.convolve cheap
        xs_ref, z_ref = z_rho_series(c0, 8.0, GRID_STEP)
        xs, z, _ = _z_grid(c0)
        assert np.array_equal(xs[:xs_ref.size], xs_ref)
        on = xs_ref >= 1.0
        assert np.max(np.abs(z[:xs_ref.size][on] - z_ref[on])) < 1e-12

    @pytest.mark.parametrize("c0", [0.3, 0.5, 1.0])
    def test_first_interval_cdf_is_logarithmic(self, c0):
        xs, _, cdf = _z_grid(c0)
        on = (xs >= 1.0) & (xs <= 2.0)
        assert np.max(np.abs(cdf[on] - c0 * np.log(xs[on]))) < 1e-12

    @pytest.mark.parametrize("c0", [0.3, 0.5, 1.0])
    def test_second_interval_density(self, c0):
        xs, z, _ = _z_grid(c0)
        on = (xs >= 2.0) & (xs <= 3.0)
        exact = c0 * (1.0 - c0 * np.log(xs[on] - 1.0)) / xs[on]
        assert np.max(np.abs(z[on] - exact)) < 1e-12

    def test_zero_c0_keeps_no_mass(self):
        x = np.array([0.5, 1.0, 2.5, 24.0, 30.0, 1e6])
        assert np.array_equal(z_cdf(0.0, x), np.zeros_like(x))

    def test_loads_numpy_alone(self):
        # ``import hcplab.limits`` runs the package __init__, which imports
        # every module, so the file is loaded on its own
        probe = (
            "import importlib.util, json, sys\n"
            "spec = importlib.util.spec_from_file_location('limits_alone', sys.argv[1])\n"
            "mod = importlib.util.module_from_spec(spec)\n"
            "sys.modules['limits_alone'] = mod\n"
            "spec.loader.exec_module(mod)\n"
            "assert mod.z_cdf(1.0, 2.0) > 0\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] in ('hcplab', 'scipy'))))\n")
        proc = subprocess.run([sys.executable, "-c", probe, hcplab.limits.__file__],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=""))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]


class TestParameterRanges:
    def test_rejects_out_of_range(self):
        for c0 in (1.5, -0.5, math.nan):
            for call in (lambda: g_infinity(c0, 1.0), lambda: z_density(c0, 2.0),
                         lambda: z_cdf(c0, 2.0), lambda: limit_moment(c0, 1),
                         lambda: first_point_limit_transform(c0, 0.0, 1.0)):
                with pytest.raises(ValueError, match="c0 must lie in"):
                    call()
        for gamma in (-1.0, math.nan):
            with pytest.raises(ValueError, match="gamma must be nonnegative"):
                first_point_limit_transform(1.0, gamma, 1.0)


class TestZCdf:
    def test_anchors(self):
        assert z_cdf(1.0, 1.0) == 0.0
        assert z_cdf(1.0, 2.0) == pytest.approx(math.log(2.0), abs=1e-5)
        assert z_cdf(1.0, 50.0) == pytest.approx(1.0, abs=1e-4)

    def test_matches_density_by_differentiation(self):
        h = 1e-4
        for x in (1.5, 2.7, 4.1):
            deriv = (z_cdf(1.0, x + h) - z_cdf(1.0, x - h)) / (2 * h)
            assert deriv == pytest.approx(z_density(1.0, x), abs=1e-4)

    @pytest.mark.parametrize("c0", [0.3, 0.5])
    def test_tail_continues_solved_cdf(self, c0):
        # beyond X_MAX, 1 - F = C x^{-c0} with C fixed by F(X_MAX)
        at = 1.0 - z_cdf(c0, X_MAX)
        assert 1.0 - z_cdf(c0, X_MAX * (1 + 1e-12)) == pytest.approx(at, rel=1e-9)
        assert 1.0 - z_cdf(c0, 8 * X_MAX) == pytest.approx(at * 8.0 ** -c0, rel=1e-12)

    def test_heavy_tail_for_small_c0(self):
        # P(Z > x) ~ x^{-c0}: the cdf approaches 1 slowly
        assert z_cdf(0.5, 1e6) < 1.0
        assert z_cdf(0.5, 1e6) > z_cdf(0.5, 1e3)


class TestTransformDensityConsistency:
    @pytest.mark.parametrize("c0", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_pointwise(self, c0, s):
        xs = np.arange(1.0, 24.0, 1.0 / 512.0)
        integral = np.trapezoid(np.exp(-s * xs) * z_density(c0, xs), xs)
        assert integral == pytest.approx(g_infinity(c0, s), abs=1e-4)


class TestFirstPointTransform:
    def test_anchors(self):
        assert first_point_limit_transform(1.0, 0.0, 0.0) == 1.0
        expected = math.exp(-(EULER_GAMMA + 0.2193839343955203))
        assert first_point_limit_transform(1.0, 0.0, 1.0) == pytest.approx(expected, abs=1e-6)

    def test_large_gamma_freezes_first_point(self):
        for s in (0.5, 2.0, 7.0):
            assert first_point_limit_transform(1.0, 1e12, s) == pytest.approx(1.0)


class TestLimitMoment:
    def test_mean_is_exp_euler_gamma(self):
        assert limit_moment(1.0, 1) == pytest.approx(math.exp(EULER_GAMMA), abs=1e-4)

    def test_infinite_below_one(self):
        assert limit_moment(0.5, 1) == math.inf

    def test_second_moment_frozen_and_oracle(self):
        # transform-derivative oracle: the k-th moments of the limit law obey
        # E[Z] = e^gamma, E[Z^2] = 2 e^gamma (expansion of the transform at 0)
        value = limit_moment(1.0, 2)
        assert value == pytest.approx(3.5621452, abs=1e-4)       # frozen
        assert value == pytest.approx(2 * math.exp(EULER_GAMMA), abs=1e-4)

    def test_third_moment_oracle(self):
        assert limit_moment(1.0, 3) == pytest.approx(4.5 * math.exp(EULER_GAMMA), abs=1e-3)


class TestFixedPoint:
    def test_pushforward_leaves_limit_law_invariant(self):
        # bin the limit law onto the midpoints of a lattice on [1, 24], push
        # one epoch with [1, 2), rescale back: the law must reproduce itself
        # up to discretization error
        spacing = 1.0 / 64.0
        mids = np.arange(1.0 + spacing / 2, 24.0, spacing)
        cdf = z_cdf(1.0, np.append(mids - spacing / 2, 24.0))
        law = AtomicMeasure(mids, np.diff(cdf), 24.0, 1.0 - cdf[-1])
        out = epoch_pushforward(law.normalized(), 1.0, 2.0).rescaled(0.5)
        grid = np.arange(1.0, 11.0, 0.125)
        ks = np.max(np.abs(out.cdf(grid) - z_cdf(1.0, grid)))
        assert ks < 2.5 * spacing
