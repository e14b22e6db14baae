"""Universal limit objects of the rescaled interval and first-point laws.

Everything here depends on the initial condition only through the constant
c0 in [0, 1] (and on the rate ratio gamma for first-point laws): the limit
Laplace transform G(s) = 1 - exp(-c0*E1(s)), its density z_c0 and CDF F, the
first-point limit transform exp(-c0*Ein(s)/(1+gamma)), and the limit moments.

Since E1'(s) = -e^{-s}/s, the transform obeys s*(1 - G)'(s) = c0*e^{-s}*(1 - G),
which in x-space is the delay equation

    x * z(x) = c0 * (1 - F(x - 1))   for x >= 1,   z = 0 below 1,

so z = c0/x on [1, 2), and z on [k, k+1] needs F on [k-1, k] only: the law is
solved one unit interval at a time.  (It equals the alternating series
sum_{k>=1} (-1)^(k+1) c0^k rho_k / k!, rho_k the k-fold convolution of 1/x on
[1, inf); ``tests/oracles.py`` keeps that series as the reference.)
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# exponential integral and its entire companion
# ---------------------------------------------------------------------------

# Terms k = 1..24 of the series of Ein, (-1)^(k+1) s^k / (k * k!); for s < 1
# the first omitted term is below 1e-25.
_EIN_K = np.arange(1, 25)
_EIN_COEF = (-1.0) ** (_EIN_K + 1) / (_EIN_K * np.cumprod(_EIN_K.astype(float)))

# Depth of the continued fraction of E1 for s >= 1.  It converges slowest at
# s = 1, where depth 120 is within 1.1e-15 of scipy.special.exp1 (60 gives
# 6.6e-13); numpy alone avoids the 0.3 s import of scipy.special.
_E1_DEPTH = 120


def _ein_series(s: np.ndarray) -> np.ndarray:
    """Ein on s < 1 by its series, all arguments at once."""
    return np.power.outer(s, _EIN_K) @ _EIN_COEF


def _e1_contfrac(s: np.ndarray) -> np.ndarray:
    """E1 on s >= 1: the even continued fraction
    E1(s) = e^{-s} / (s + 1 - 1^2/(s + 3 - 2^2/(s + 5 - ...))),
    evaluated from depth _E1_DEPTH up."""
    tail = np.zeros_like(s)
    for n in range(_E1_DEPTH, 0, -1):
        tail = n * n / (s + (2 * n + 1) - tail)
    return np.exp(-s) / (s + 1.0 - tail)


def exp_integral(s) -> np.ndarray | float:
    """E1(s) = integral_s^inf exp(-t)/t dt for s > 0.

    -gamma - log s + Ein(s) below 1, the continued fraction from 1 up.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if np.any(s_arr <= 0):
        raise ValueError("exponential integral requires s > 0")
    out = np.empty_like(s_arr)
    small = s_arr < 1.0
    out[small] = -EULER_GAMMA - np.log(s_arr[small]) + _ein_series(s_arr[small])
    out[~small] = _e1_contfrac(s_arr[~small])
    return out if np.ndim(s) else float(out[0])


def ein(s) -> np.ndarray | float:
    """Entire companion Ein(s) = integral_0^s (1 - exp(-t))/t dt, s >= 0.

    Alternating series sum_{k>=1} (-1)^(k+1) s^k / (k * k!) for s < 1; the
    identity Ein = gamma + log s + E1(s) otherwise.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if np.any(s_arr < 0):
        raise ValueError("Ein requires s >= 0")
    out = np.empty_like(s_arr)
    small = s_arr < 1.0
    out[small] = _ein_series(s_arr[small])
    big = s_arr[~small]
    out[~small] = EULER_GAMMA + np.log(big) + _e1_contfrac(big)
    return out if np.ndim(s) else float(out[0])


# ---------------------------------------------------------------------------
# limit transforms
# ---------------------------------------------------------------------------

def _check_params(c0: float, gamma: float = 0.0) -> float:
    """``c0`` as a float, once c0 is in [0, 1] and gamma >= 0 (NaN fails)."""
    if not 0.0 <= c0 <= 1.0:
        raise ValueError(f"c0 must lie in [0, 1], got {c0!r}")
    if not gamma >= 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    return float(c0)


def g_infinity(c0: float, s) -> np.ndarray | float:
    """Limit Laplace transform of the rescaled interval length:
    1 - exp(-c0 * E1(s)); s = 0 returns 1 (E1 diverges), c0 = 0 degenerates
    to 0 for s > 0 (all mass escapes to infinity)."""
    c0 = _check_params(c0)
    s_arr = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if np.any(s_arr < 0):
        raise ValueError("transform argument must be >= 0")
    out = np.empty_like(s_arr)
    pos = s_arr > 0
    out[~pos] = 1.0
    if c0 == 0.0:
        out[pos] = 0.0
    elif np.any(pos):
        out[pos] = -np.expm1(-c0 * np.atleast_1d(exp_integral(s_arr[pos])))
    return out if np.ndim(s) else float(out[0])


def first_point_limit_transform(c0: float, gamma: float, s) -> np.ndarray | float:
    """Limit Laplace transform of the rescaled first-point position:
    exp{ -(c0/(1+gamma)) * integral_0^1 (1 - e^{-s y})/y dy }, and the inner
    integral is Ein(s)."""
    c0 = _check_params(c0, gamma)
    s_arr = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if np.any(s_arr < 0):
        raise ValueError("transform argument must be >= 0")
    out = np.exp(-(c0 / (1.0 + gamma)) * np.atleast_1d(ein(s_arr)))
    return out if np.ndim(s) else float(out[0])


# ---------------------------------------------------------------------------
# the limit density and CDF from the delay equation
# ---------------------------------------------------------------------------

# The law is tabulated on x = 0, GRID_STEP, ..., X_MAX.  The step divides 1,
# so the jump at x = 1 and the kinks at the integers fall on nodes.
X_MAX = 24.0
GRID_STEP = 1.0 / 512.0


def _solve_delay(c0: float, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, z and F on the step-h grid: z from F one unit back, F by the
    cumulative trapezoid of z from the jump at x = 1 (node 1 holds the right
    limit z(1) = c0), one unit interval at a time."""
    m = int(round(1.0 / h))
    xs = np.arange(int(round(X_MAX)) * m + 1) * h
    z = np.zeros_like(xs)
    cdf = np.zeros_like(xs)
    for lo in range(m, xs.size - 1, m):  # nodes lo..hi-1 span [lo/m, lo/m + 1]
        hi = lo + m + 1
        z[lo:hi] = c0 * (1.0 - cdf[lo - m:hi - m]) / xs[lo:hi]
        cdf[lo + 1:hi] = cdf[lo] + np.cumsum(z[lo:hi - 1] + z[lo + 1:hi]) * (0.5 * h)
    return xs, z, cdf


@lru_cache(maxsize=8)
def _z_grid(c0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, z and F on the GRID_STEP grid, each Richardson-extrapolated against
    the step GRID_STEP/2 to remove the O(h^2) trapezoid error."""
    xs, z_c, cdf_c = _solve_delay(c0, GRID_STEP)
    _, z_f, cdf_f = _solve_delay(c0, GRID_STEP / 2.0)
    return xs, (4.0 * z_f[::2] - z_c) / 3.0, (4.0 * cdf_f[::2] - cdf_c) / 3.0


def z_density(c0: float, x) -> np.ndarray | float:
    """Universal limit density z_c0(x) on [1, X_MAX]; 0 below 1.

    Node values come from the cached delay-equation table, others by linear
    interpolation.
    """
    c0 = _check_params(c0)
    xs, z, _ = _z_grid(c0)
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(x_arr > X_MAX):
        raise ValueError(f"the limit density is tabulated up to x = X_MAX = {X_MAX}")
    out = np.interp(x_arr, xs, z)
    out[x_arr < 1.0] = 0.0
    return out if np.ndim(x) else float(out[0])


def z_cdf(c0: float, x) -> np.ndarray | float:
    """CDF of the universal limit law: 0 at x = 1, -> 1 as x -> inf.

    Beyond X_MAX: the power-law tail P(Z > x) = C x^{-c0} for c0 < 1, with C
    from the solved F at X_MAX; for c0 = 1 the true tail is superexponential
    and F(X_MAX) is kept.
    """
    c0 = _check_params(c0)
    xs, _, cdf = _z_grid(c0)
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.interp(x_arr, xs, cdf)
    beyond = x_arr > X_MAX
    if c0 < 1.0 and np.any(beyond):
        tail_c = (1.0 - cdf[-1]) * X_MAX ** c0
        out[beyond] = 1.0 - tail_c * x_arr[beyond] ** (-c0)
    out[x_arr < 1.0] = 0.0
    return out if np.ndim(x) else float(out[0])


def limit_moment(c0: float, k: int) -> float:
    """k-th moment of the limit law by trapezoid quadrature of the density
    on [1, X_MAX].

    Finite only for c0 = 1 (for c0 < 1 the transform derivative diverges like
    s^(c0-1) at 0, so even the mean is infinite); returns math.inf then.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    if _check_params(c0) < 1.0:
        return math.inf
    xs, z, _ = _z_grid(1.0)
    i1 = int(round(1.0 / GRID_STEP))  # from the jump at x = 1 only
    return float(np.trapezoid(xs[i1:] ** k * z[i1:], xs[i1:]))
