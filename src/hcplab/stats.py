"""Statistical machinery that turns limiting laws into tests.

All tests are deterministic given their sample input; the discrete-law
bootstrap draws from an explicitly seeded stream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measures import AtomicMeasure
from .sampling import replica_rng


def _as_values(samples) -> np.ndarray:
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        raise ValueError("sample set must be nonempty")
    return values


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n: int


def ks_test(samples, cdf) -> KsResult:
    """One-sample Kolmogorov-Smirnov test against a continuous CDF.

    D = sup |F_emp - F| over the sample, p-value from the asymptotic
    Kolmogorov distribution at sqrt(n) * D.
    """
    from scipy.special import kolmogorov
    values = np.sort(_as_values(samples))
    n = values.size
    f = np.asarray(cdf(values), dtype=float)
    if np.any(np.diff(f) < -1e-12):
        raise ValueError("cdf must be nondecreasing on the sample range")
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    d = float(max(d_plus, d_minus))
    return KsResult(d, float(kolmogorov(math.sqrt(n) * d)), n)


def ks_two_sample(a, b) -> KsResult:
    """Two-sample KS with the asymptotic p-value at the effective sample size."""
    from scipy.special import kolmogorov
    x = np.sort(_as_values(a))
    y = np.sort(_as_values(b))
    allv = np.concatenate((x, y))
    cdf_x = np.searchsorted(x, allv, side="right") / x.size
    cdf_y = np.searchsorted(y, allv, side="right") / y.size
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    n_eff = x.size * y.size / (x.size + y.size)
    return KsResult(d, float(kolmogorov(math.sqrt(n_eff) * d)), int(n_eff))


def ks_test_discrete(samples, law: AtomicMeasure, n_bootstrap: int = 200,
                     seed: int = 0) -> KsResult:
    """KS against a discrete law: D = sup over atoms |F_emp - F|, p-value by
    parametric bootstrap (the asymptotic law is conservative on lattices)."""
    values = _as_values(samples)
    n = values.size
    atoms = law.positions
    probs = law.masses / law.total_mass
    cdf = np.cumsum(probs)

    def stat(v):
        emp = np.searchsorted(np.sort(v), atoms * (1 + 1e-12), side="right") / v.size
        return float(np.max(np.abs(emp - cdf)))

    d_obs = stat(values)
    rng = replica_rng(seed, 0xB007)
    exceed = 0
    for _ in range(n_bootstrap):
        draw = atoms[np.searchsorted(cdf, rng.random(n), side="right").clip(max=atoms.size - 1)]
        if stat(draw) >= d_obs - 1e-15:
            exceed += 1
    return KsResult(d_obs, (exceed + 1) / (n_bootstrap + 1), n)


@dataclass(frozen=True)
class Chi2Result:
    statistic: float
    p_value: float
    dof: int


def _margin_bins(v: np.ndarray, k: int) -> np.ndarray | None:
    """Indices of equal-probability quantile bins, or None if degenerate.
    Values equal to a bin edge fall in the lower bin (lattice-law friendly)."""
    edges = np.unique(np.quantile(v, np.linspace(0, 1, k + 1)[1:-1]))
    if edges.size == 0:
        return None
    idx = np.searchsorted(edges, v, side="left")
    if np.unique(idx).size != edges.size + 1:
        return None
    return idx


def independence_test(d1, d2, bins: int = 4) -> Chi2Result:
    """Chi-square independence test for consecutive-interval pairs.

    Bins are equal-probability cells from each margin's quantiles; the bin
    count is lowered until every expected cell count reaches 5.
    """
    from scipy.stats import chi2  # imported here: scipy.stats takes ~1 s to load

    x = _as_values(d1)
    y = _as_values(d2)
    if x.size != y.size:
        raise ValueError("paired samples must have equal length")
    n = x.size
    for k in range(bins, 1, -1):
        ix = _margin_bins(x, k)
        iy = _margin_bins(y, k)
        if ix is None or iy is None:
            continue
        r, c = int(ix.max()) + 1, int(iy.max()) + 1
        table = np.zeros((r, c))
        np.add.at(table, (ix, iy), 1.0)
        rows = table.sum(axis=1, keepdims=True)
        cols = table.sum(axis=0, keepdims=True)
        expected = rows @ cols / n
        if expected.min() < 5.0:
            continue
        stat = float(((table - expected) ** 2 / expected).sum())
        dof = (r - 1) * (c - 1)
        return Chi2Result(stat, float(chi2.sf(stat, dof)), dof)
    raise ValueError("degenerate margins: no binning reaches expected count 5")


def exchangeable_identity_check(g_values, variant: str = "chain") -> tuple[float, float]:
    """Brute-force permutation identities for exchangeable weights.

    chain: sum over permutations of prod_i g(s_sigma(i)) / sum_{j>=i} g(s_sigma(j))
           equals 1.
    full:  sum over permutations of
           g(s_sigma(1))/sum_all * prod_{i=2}^{k-1} g(s_sigma(i))/sum_{j=i}^{k-1}
           equals k - 1 (needs k >= 2).

    Returns (sum, |deviation from the identity value|).
    """
    g = np.asarray(g_values, dtype=float)
    k = g.size
    if np.any(g <= 0):
        raise ValueError("identity requires strictly positive weights")
    if k > 8:
        raise ValueError("brute force restricted to k <= 8")
    total = 0.0
    if variant == "chain":
        for sigma in itertools.permutations(range(k)):
            prod = 1.0
            rest = float(g[list(sigma)].sum())
            for i in range(k):
                prod *= g[sigma[i]] / rest
                rest -= g[sigma[i]]
            total += prod
        return total, abs(total - 1.0)
    if variant == "full":
        if k < 2:
            raise ValueError("full variant needs k >= 2")
        g_sum = float(g.sum())
        for sigma in itertools.permutations(range(k)):
            prod = g[sigma[0]] / g_sum
            rest = float(g[[sigma[i] for i in range(1, k - 1)]].sum())
            for i in range(1, k - 1):
                prod *= g[sigma[i]] / rest
                rest -= g[sigma[i]]
            total += prod
        return total, abs(total - (k - 1.0))
    raise ValueError(f"unknown variant {variant!r}")
