"""Slow reference implementations kept only to check the fast ones.

``deconvolve_m_intervals`` solves the alternating series
p = sum_{k>=1} (-1)^(k+1) m^{*k} / k! interval by interval, recomputing the
powers of the partial m on each unit interval.  ``rho_tables_direct`` builds
the rho_k tables with direct (non-FFT) discrete convolution.
``ein_series_scalar`` sums the small-s series of Ein one argument at a time.
"""

from __future__ import annotations

import math

import numpy as np

from hcplab.measures import AtomicMeasure, MeasureError, _coalesce, convolve


def deconvolve_m_intervals(p: AtomicMeasure, j_max: float) -> AtomicMeasure:
    """Recover m on [1, j_max) from the law p of Z >= 1.

    On each integer interval [j, j+1) the identity

        m = p + sum_{k=2}^{j} (-1)^k m^{*k} / k!

    is exact (m^{*k} vanishes there for k > j) and the right-hand side only
    involves m already recovered on [1, j-k+2).
    """
    if p.n_atoms and p.positions[0] < 1 - 1e-12:
        raise MeasureError("law of Z must be supported on [1, inf)")
    j_top = int(math.ceil(j_max))
    m_pos: list[np.ndarray] = []
    m_mas: list[np.ndarray] = []

    def current_m() -> AtomicMeasure:
        if not m_pos:
            return AtomicMeasure(np.empty(0), np.empty(0), j_max)
        return AtomicMeasure(np.concatenate(m_pos), np.concatenate(m_mas), j_max)

    for j in range(1, j_top):
        hi = min(float(j + 1), j_max)
        seg = p.restricted(j, hi)
        pos_parts = [seg.positions]
        mas_parts = [seg.masses]
        if j >= 2:
            m_so_far = current_m()
            power = m_so_far
            fact = 1.0
            for k in range(2, j + 1):
                power = convolve(power, m_so_far)
                fact *= k
                piece = power.restricted(j, hi)
                sign = 1.0 if k % 2 == 0 else -1.0
                pos_parts.append(piece.positions)
                mas_parts.append(sign * piece.masses / fact)
        pos, mas = _coalesce(np.concatenate(pos_parts), np.concatenate(mas_parts))
        keep = mas > 0.0
        if np.any(keep):
            m_pos.append(pos[keep])
            m_mas.append(mas[keep])
    return current_m()


def rho_tables_direct(x_max: float, h: float, k_max: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """rho_1..rho_k_max on x = 0, h, ..., x_max by trapezoid-weighted
    ``np.convolve``; same grid and endpoint corrections as the FFT tables."""
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
        ik = int(round(k / h))
        full = np.convolve(f, kernel)[:n] * h
        lower = np.zeros(n)
        lower[ik:] = f[ik] * kernel[:n - ik]
        upper = np.zeros(n)
        upper[i1:] = f[: n - i1] * kernel[i1]
        nxt = full - 0.5 * h * (lower + upper)
        nxt[: ik + i1] = 0.0
        nxt[nxt < 0] = 0.0
        tables.append(nxt)
    return xs, tables


def ein_series_scalar(v: float) -> float:
    """Ein(v) = sum_{k>=1} (-1)^(k+1) v^k / (k * k!) for 0 <= v < 1, summed
    until a term drops below 1e-18."""
    total = 0.0
    term = 1.0
    for k in range(1, 60):
        term *= v / k
        add = term / k
        total += add if k % 2 == 1 else -add
        if abs(add) < 1e-18:
            break
    return total
