"""Universal limit objects of the rescaled interval and first-point laws.

Everything here depends on the initial condition only through the constant
c0 in [0, 1] (and on the rate ratio gamma for first-point laws): the limit
Laplace transform 1 - exp(-c0*E1(s)), the limit density

    z_c0(x) = sum_{k>=1} (-1)^(k+1) c0^k rho_k(x) 1_{x>=k} / k!

where rho_k is the k-fold convolution of the density 1/x on [1, inf), the
first-point limit transform exp(-c0*Ein(s)/(1+gamma)), and the limit moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .measures import _fft_convolve

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
# limit law parameters and transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitLawParams:
    c0: float = 1.0
    gamma: float = 0.0
    series_order: int = 24     # rho_k tables up to this k
    x_max: float = 24.0        # dense-grid coverage of the density
    grid_step: float = 1.0 / 512.0

    def __post_init__(self):
        if not 0.0 <= self.c0 <= 1.0:
            raise ValueError("c0 must lie in [0, 1]")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.series_order < 1:
            raise ValueError("series order must be >= 1")


def _c0_of(params) -> float:
    return params.c0 if isinstance(params, LimitLawParams) else float(params)


def g_infinity(params, s) -> np.ndarray | float:
    """Limit Laplace transform of the rescaled interval length:
    1 - exp(-c0 * E1(s)); s = 0 returns 1 (E1 diverges), c0 = 0 degenerates
    to 0 for s > 0 (all mass escapes to infinity)."""
    c0 = _c0_of(params)
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


def first_point_limit_transform(params, s) -> np.ndarray | float:
    """Limit Laplace transform of the rescaled first-point position:
    exp{ -(c0/(1+gamma)) * integral_0^1 (1 - e^{-s y})/y dy }, and the inner
    integral is Ein(s)."""
    if isinstance(params, LimitLawParams):
        c0, gamma = params.c0, params.gamma
    else:
        c0, gamma = params
    s_arr = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if np.any(s_arr < 0):
        raise ValueError("transform argument must be >= 0")
    out = np.exp(-(c0 / (1.0 + gamma)) * np.atleast_1d(ein(s_arr)))
    return out if np.ndim(s) else float(out[0])


# ---------------------------------------------------------------------------
# rho_k tables and the limit density
# ---------------------------------------------------------------------------

def _rho_tables(x_max: float, h: float, k_max: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sample rho_1..rho_k_max on the grid x = 0, h, 2h, ..., x_max.

    rho_{k+1}(x) = integral_k^{x-1} rho_k(y) / (x - y) dy is evaluated by
    trapezoid-weighted discrete convolution, done by numpy's FFT
    (``measures._fft_convolve``: ``scipy.signal`` is slow to import).  The
    grid step must divide 1 so that the support corners x = k (where rho_k
    has kinks) fall on grid nodes; the endpoint jumps of the integrand then
    sit on nodes and the trapezoid half-weights apply cleanly.
    """
    n = int(round(x_max / h)) + 1
    xs = np.arange(n) * h
    i1 = int(round(1.0 / h))
    kernel = np.zeros(n)
    kernel[i1:] = 1.0 / xs[i1:]
    rho1 = np.zeros(n)
    rho1[i1:] = 1.0 / xs[i1:]
    tables = [rho1]
    for k in range(1, k_max):
        f = tables[-1]
        ik = int(round(k / h))  # support start of f
        full = _fft_convolve(f, kernel)[:n] * h
        # trapezoid endpoint corrections: half-weight at y = k and y = x - 1
        lower = np.zeros(n)
        lower[ik:] = f[ik] * kernel[:n - ik]
        upper = np.zeros(n)
        upper[i1:] = f[: n - i1] * kernel[i1]
        nxt = full - 0.5 * h * (lower + upper)
        nxt[: ik + i1] = 0.0
        nxt[nxt < 0] = 0.0
        tables.append(nxt)
    return xs, tables


@lru_cache(maxsize=8)
def _z_grid(c0: float, x_max: float, h: float, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Richardson-extrapolated samples of z_c0 on the step-h grid."""
    k_eff = min(k_max, int(math.floor(x_max)) + 1)

    def combine(step: float) -> tuple[np.ndarray, np.ndarray]:
        xs, tables = _rho_tables(x_max, step, k_eff)
        z = np.zeros_like(xs)
        fact = 1.0
        for k, rho in enumerate(tables, start=1):
            fact *= k
            term = (c0 ** k / fact) * rho
            z += term if k % 2 == 1 else -term
        return xs, z

    xs_f, z_f = combine(h / 2.0)
    xs_c, z_c = combine(h)
    z = (4.0 * z_f[::2] - z_c) / 3.0  # eliminate the O(h^2) trapezoid error
    z[z < 0] = 0.0
    return xs_c, z


def z_density(params, x) -> np.ndarray | float:
    """Universal limit density z_c0(x) on [1, inf); 0 below 1.

    The series truncation at k = floor(x) is exact because rho_k vanishes
    below k; values come from the cached convolution tables.
    """
    p = params if isinstance(params, LimitLawParams) else LimitLawParams(c0=float(params))
    xs, z = _z_grid(p.c0, p.x_max, p.grid_step, p.series_order)
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(x_arr > p.x_max):
        raise ValueError(f"density computed up to x_max={p.x_max}; extend LimitLawParams")
    out = np.interp(x_arr, xs, z)
    out[x_arr < 1.0] = 0.0
    return out if np.ndim(x) else float(out[0])


@lru_cache(maxsize=8)
def _zcdf_grid(c0: float, x_max: float, h: float, k_max: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    xs, z = _z_grid(c0, x_max, h, k_max)
    # integrate from the support edge x = 1 only: the density jumps there and
    # a trapezoid panel straddling the jump would add a spurious h/2 * z(1)
    i1 = int(round(1.0 / h))
    dcf = (z[1:] + z[:-1]) * 0.5 * np.diff(xs)
    dcf[:i1] = 0.0
    cdf = np.concatenate(([0.0], np.cumsum(dcf)))
    # power-law tail beyond the grid: P(Z > x) ~ C x^{-c0} for c0 < 1
    # (for c0 = 1 the true tail is superexponential and already negligible)
    if c0 < 1.0:
        tail_c = (1.0 - cdf[-1]) * xs[-1] ** c0
    else:
        tail_c = 0.0
    return xs, cdf, tail_c, float(1.0 - cdf[-1])


def z_cdf(params, x) -> np.ndarray | float:
    """CDF of the universal limit law: 0 at x = 1, -> 1 as x -> inf."""
    p = params if isinstance(params, LimitLawParams) else LimitLawParams(c0=float(params))
    xs, cdf, tail_c, tail_mass = _zcdf_grid(p.c0, p.x_max, p.grid_step, p.series_order)
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.interp(x_arr, xs, cdf)
    beyond = x_arr > xs[-1]
    if np.any(beyond):
        if p.c0 < 1.0:
            out[beyond] = 1.0 - tail_c * x_arr[beyond] ** (-p.c0)
        else:
            out[beyond] = 1.0 - tail_mass
    out[x_arr < 1.0] = 0.0
    return out if np.ndim(x) else float(out[0])


def limit_moment(params, k: int) -> float:
    """k-th moment of the limit law by density quadrature with a tail bound.

    Finite only for c0 = 1 (for c0 < 1 the transform derivative diverges like
    s^(c0-1) at 0, so even the mean is infinite); returns math.inf then.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    p = params if isinstance(params, LimitLawParams) else LimitLawParams(c0=float(params))
    if p.c0 < 1.0:
        return math.inf
    xs, z = _z_grid(p.c0, p.x_max, p.grid_step, p.series_order)
    i1 = int(round(1.0 / p.grid_step))  # support edge; see _zcdf_grid
    integrand = xs[i1:] ** k * z[i1:]
    return float(np.trapezoid(integrand, xs[i1:]))
