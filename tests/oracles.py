"""Slow reference implementations kept only to check the fast ones.

``deconvolve_m_intervals`` solves the alternating series
p = sum_{k>=1} (-1)^(k+1) m^{*k} / k! interval by interval, recomputing the
powers of the partial m on each unit interval by pairwise atom sums.  ``rho_tables_direct`` builds
the rho_k tables (rho_k the k-fold convolution of 1/x on [1, inf)) by
trapezoid-weighted direct convolution, and ``z_rho_series`` sums them into
the limit density z_c0 = sum_k (-1)^(k+1) c0^k rho_k / k! with one
Richardson step: the series the delay equation of ``limits`` replaced.
``u1_lattice_blocks`` solves the lattice recurrence of ``u1_on_lattice`` in
blocks of the smallest tap, one slice-add per tap and block.
``ein_series_scalar`` sums the small-s series of Ein one argument at a time.
``geometric_atomic_full`` is ``GeometricLaw.atomic`` with every atom up to
l_max, the far ones of mass 0.0 included.
``epoch_pushforward_series`` runs one epoch as two interleaved series,
mu + sum_k ((mu - delta_0) * h^{*k}) / k!, one convolution with mu per term:
the pushforward as it was before ``measures.epoch_pushforward`` summed
E = exp(h) - delta_0 first and convolved mu with it once.
``simulate_points_loop`` runs one epoch as a time-sorted event loop with lazy
invalidation, on the rates ``rate_values`` evaluates from a family's
coefficients, and ``run_hcp_loop``/``replicate_loop`` chain it replica by
replica, each replica drawn by ``sample_spec_config`` into its own checked
configuration: the simulator as it was before the epoch resolver, the
segmented engine and the batch draws replaced it.  ``run_hcp_loop`` finds the
marked point by binary search and returns, beside its summaries, the points
each epoch erased, counted from the alive masks.  ``thinned_z`` applies the
``z_per_epoch`` rule of ``replicate`` to a summary that holds every core z,
one replica at a time.  ``thin_rank_modulo`` re-thins held z by each one's
in-replica rank modulo the stride ratio, over every held z: the rule
``hcp._kept`` replaced by indexing the kept z alone.
``seed_sequence_rng`` derives a replica stream by numpy's own route, one
SeedSequence object per replica, which ``sampling.replica_rng`` and
``replica_rngs`` replaced by hashing the spawn-key word of a block of
replicas at once; ``replicate_loop`` draws its replicas from it.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np

from hcplab.epoch import Boundary, StateSpaceError
from hcplab import hcp
from hcplab.hcp import EpochSummary, WindowExhaustedError, WindowPolicy
from hcplab.measures import (MASS_ATOL, AtomicMeasure, MeasureError, _coalesce,
                             convolve)
from hcplab.laws import SamplingContractError
from hcplab.rates import RateValidityError
from hcplab.sampling import (ContainsOrigin, ExchangeableMixture, LatticeStationary,
                             LeftBounded, PeriodicRenewal, Stationary)


def _convolve_pairs(m1: AtomicMeasure, m2: AtomicMeasure, hi: float) -> AtomicMeasure:
    """m1 * m2 below hi from every atom pair, coalesced within the position
    tolerance, so that the interval recursion shares no convolution code with
    ``measures.convolve`` and its dense route."""
    pos = np.add.outer(m1.positions, m2.positions).ravel()
    mas = np.multiply.outer(m1.masses, m2.masses).ravel()
    keep = pos < hi
    pos, mas = _coalesce(pos[keep], mas[keep])
    return AtomicMeasure(pos, mas, m1.l_max)


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
                power = _convolve_pairs(power, m_so_far, hi)
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
    ``np.convolve``: rho_{k+1}(x) = integral_k^{x-1} rho_k(y) / (x - y) dy, with
    half weights at both ends (h must divide 1, so the ends fall on nodes)."""
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


@lru_cache(maxsize=4)
def _rho_tables_cached(x_max: float, h: float, k_max: int):
    return rho_tables_direct(x_max, h, k_max)


def z_rho_series(c0: float, x_max: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """z_c0 on x = 0, h, ..., x_max by the alternating rho_k series (exact
    below x_max with k up to floor(x_max) + 1, since rho_k vanishes below k),
    Richardson-extrapolated against step h/2."""
    k_max = int(math.floor(x_max)) + 1

    def series(step: float) -> tuple[np.ndarray, np.ndarray]:
        xs, tables = _rho_tables_cached(x_max, step, k_max)
        z = np.zeros_like(xs)
        for k, rho in enumerate(tables, start=1):
            z += (-1.0) ** (k + 1) * c0 ** k / math.factorial(k) * rho
        return xs, z

    xs, z_c = series(h)
    _, z_f = series(h / 2.0)
    return xs, (4.0 * z_f[::2] - z_c) / 3.0


def u1_lattice_blocks(base: np.ndarray, atom_idx: np.ndarray,
                   atom_mass: np.ndarray) -> np.ndarray:
    # c[i] = base[i] + sum_j c[i - a_j] * w_j, resolved in blocks of the
    # smallest atom index: every dependency then falls in an earlier block.
    c = base.copy()
    n = c.size
    step = int(atom_idx.min())
    for start in range(0, n, step):
        stop = min(start + step, n)
        for a, w in zip(atom_idx, atom_mass):
            src_lo = start - int(a)
            src_hi = stop - int(a)
            if src_hi <= 0:
                continue
            if src_lo < 0:
                src_lo = 0
            c[src_lo + int(a):stop] += c[src_lo:src_hi] * w
    return c


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


def geometric_atomic_full(q: float, l_max: float) -> AtomicMeasure:
    """Atoms k = 1..floor(l_max) with masses q (1-q)^(k-1), underflowed
    zeros kept; deficit (1-q)^floor(l_max)."""
    n = int(l_max)
    k = np.arange(1, n + 1, dtype=np.float64)
    return AtomicMeasure(k, q * (1 - q) ** (k - 1), l_max, deficit=(1 - q) ** n)


def epoch_pushforward_series(mu: AtomicMeasure, d_min: float, d_max: float) -> AtomicMeasure:
    """The law after one epoch on [d_min, d_max), with h = mu on that range:

        mu_inf = sum_{k>=0} (mu * h^{*k}) / k!  -  sum_{k>=1} h^{*k} / k!

    accumulated term by term, on the stopping rule of ``epoch_pushforward``."""
    h = mu.restricted(d_min, d_max)
    total_in = mu.total_mass
    if h.n_atoms == 0:
        return mu
    acc_pos = [mu.positions]
    acc_mas = [mu.masses]
    hk = h
    fact = 1.0
    k = 1
    while True:
        fact *= k
        conv = convolve(mu, hk)
        acc_pos += [conv.positions, hk.positions]
        acc_mas += [conv.masses / fact, -hk.masses / fact]
        k += 1
        if (k * d_min > mu.l_max) or (hk.finite_mass / fact < 1e-18 * max(1.0, total_in)):
            break
        hk = convolve(hk, h)
        if hk.n_atoms == 0:
            break
    pos, mas = _coalesce(np.concatenate(acc_pos), np.concatenate(acc_mas))
    below = pos < d_max * (1 - 1e-12)
    if np.any(below & (np.abs(mas) > MASS_ATOL)) or np.any(mas < -MASS_ATOL):
        raise MeasureError("series left a negative or non-cancelled atom")
    keep = (~below) & (mas > 0.0)
    pos, mas = pos[keep], mas[keep]
    return AtomicMeasure(pos, mas, mu.l_max, max(0.0, total_in - float(mas.sum())))


def _checked(lengths: np.ndarray) -> np.ndarray:
    if not ((lengths > 0) & (lengths < np.inf)).all():
        raise SamplingContractError("law produced a nonpositive or non-finite length")
    return lengths


def relative_points(lengths: np.ndarray, boundary: Boundary) -> np.ndarray:
    """The points of one configuration with its first one at exactly 0: one
    per interval on a circle, one more otherwise."""
    if boundary is Boundary.PERIODIC:
        lengths = lengths[:-1]
    return np.concatenate(([0.0], np.cumsum(lengths)))


def sample_spec_config(spec, n_intervals: int, rng) -> tuple[float, np.ndarray, Boundary, int]:
    """(first point, lengths, boundary, marked index) of one replica, its
    draws checked as they are made: the per-replica samplers the batch draws
    replaced."""
    if n_intervals < 1:
        raise ValueError("need at least one interval")
    if isinstance(spec, LeftBounded):
        lengths = _checked(spec.mu.sample(rng, n_intervals))
        return spec.first_point, lengths, Boundary.LEFT_BOUNDED, 0
    if isinstance(spec, ContainsOrigin):
        n_left = n_intervals // 2
        left = _checked(spec.mu.sample(rng, n_left)) if n_left else np.empty(0)
        right = _checked(spec.mu.sample(rng, n_intervals - n_left))
        return (-float(left.sum()), np.concatenate((left[::-1], right)), Boundary.WINDOW,
                n_left)
    if isinstance(spec, Stationary):
        straddle = float(spec.mu.sample_size_biased(rng, 1)[0])
        offset = rng.random() * straddle
        rest = _checked(spec.mu.sample(rng, n_intervals - 1)) if n_intervals > 1 \
            else np.empty(0)
        return -offset, np.concatenate(([straddle], rest)), Boundary.WINDOW, 0
    if isinstance(spec, LatticeStationary):
        straddle = int(spec.mu.sample_size_biased(rng, 1)[0])
        offset = int(rng.integers(0, straddle))
        rest = _checked(spec.mu.sample(rng, n_intervals - 1)) if n_intervals > 1 \
            else np.empty(0)
        if np.any(np.rint(rest) != rest):
            raise SamplingContractError("lattice law produced a non-integer gap")
        return float(-offset), np.concatenate(([float(straddle)], rest)), Boundary.WINDOW, 0
    if isinstance(spec, ExchangeableMixture):
        weights = np.array([w for w, _ in spec.components], dtype=float)
        idx = int(rng.choice(len(weights), p=weights / weights.sum()))
        lengths = _checked(spec.components[idx][1].sample(rng, n_intervals))
        return 0.0, lengths, Boundary.LEFT_BOUNDED, 0
    if isinstance(spec, PeriodicRenewal):
        lengths = _checked(spec.mu.sample(rng, n_intervals))
        return 0.0, lengths, Boundary.PERIODIC, 0
    raise TypeError(f"unknown renewal specification {spec!r}")


def rate_values(rates, d):
    """(lambda_left(d), lambda_right(d)) of a RateFamily, in the masked form
    its docstring states: each coefficient times s(d) on [d_min, d_max), 0
    outside.  The resolver computes the same values inline."""
    d = np.asarray(d, dtype=float)
    scale = d / rates.d_min if rates.linear else 1.0
    inside = (d >= rates.d_min) & (d < rates.d_max)
    return (np.where(inside, rates.left * scale, 0.0),
            np.where(inside, rates.right * scale, 0.0))


def simulate_points_loop(points: np.ndarray, periodic: bool, circumference: float | None,
                         rates, rng) -> np.ndarray:
    """Erase points of one epoch; returns the alive mask.

    Rings are consumed in stable-argsort order of their times, so ties go to
    the lower domain index.
    """
    n_points = points.size
    if periodic:
        gaps = np.empty(n_points)
        gaps[:-1] = np.diff(points)
        gaps[-1] = circumference - (points[-1] - points[0])
    else:
        gaps = np.diff(points)
    # a gap within a relative 1e-9 of d_min or d_max counts as at it
    d_min = rates.d_min * (1 - 1e-9) - 1e-12
    if gaps.size and gaps.min() < d_min:
        raise StateSpaceError(
            f"interval of length {gaps.min()} below d_min={rates.d_min}")

    active = (gaps >= d_min) & (gaps < rates.d_max * (1 - 1e-9))
    idx = np.flatnonzero(active)
    at = np.maximum(gaps[idx], rates.d_min)
    lam_l, lam_r = rate_values(rates, at)
    lam = lam_l + lam_r
    if np.any(lam <= 0):
        raise RateValidityError("active domain with zero total rate")
    times = rng.exponential(scale=1.0, size=idx.size) / lam
    erase_left = rng.random(idx.size) < (lam_r / lam)

    alive = np.ones(n_points, dtype=np.bool_)
    for k in np.argsort(times, kind="stable"):
        a, b = idx[k], (idx[k] + 1) % n_points  # a periodic last domain ends at point 0
        if alive[a] and alive[b]:
            alive[a if erase_left[k] else b] = False
    return alive


def _pilot_initial_count_loop(spec, schedule, n_epochs, policy, rng) -> int:
    pilot_n = hcp._PILOT_INTERVALS
    for _ in range(4):
        try:
            summaries, _ = run_hcp_loop(spec, schedule, n_epochs,
                                        WindowPolicy(n_intervals=pilot_n,
                                                     buffer_factor=policy.buffer_factor),
                                        rng.spawn(1)[0])
        except WindowExhaustedError:
            pilot_n *= 4
            continue
        final = summaries[-1]
        survivors = int(final.n_intervals.sum())
        if survivors < 8:
            pilot_n *= 4
            continue
        shrink = pilot_n / survivors
        buffered = int(final.n_intervals.sum() - final.core_sizes.sum())
        per_run_overhead = buffered + 4
        need_final = policy.target_core + per_run_overhead
        return int(math.ceil(need_final * shrink * hcp._PILOT_SAFETY))
    raise WindowExhaustedError(n_epochs)


def run_hcp_loop(spec, schedule, n_epochs: int, window: WindowPolicy,
                 rng) -> tuple[list[EpochSummary], list[int]]:
    """One replica, epoch by epoch, through ``simulate_points_loop``: its
    summaries, and the points erased in the epoch before each (0 at the
    first)."""
    if window.n_intervals is not None:
        n0 = window.n_intervals
    else:
        n0 = _pilot_initial_count_loop(spec, schedule, n_epochs, window, rng)
    shift, lengths, boundary, marked_idx = sample_spec_config(spec, n0, rng)
    periodic = boundary is Boundary.PERIODIC
    circumference = lengths.sum() if periodic else None
    points = relative_points(lengths, boundary)
    first_rel = points[0]
    marked_rel = points[marked_idx]

    summaries, erased = [], [0]
    buffer_len = 0.0
    for n in range(1, n_epochs + 1):
        d_n = schedule.d(n)
        buffer_len += window.buffer_factor * d_n
        if points.size < (1 if periodic else 2):
            raise WindowExhaustedError(n)
        if periodic:
            gaps = np.empty(points.size)
            gaps[:-1] = np.diff(points)
            gaps[-1] = circumference - (points[-1] - points[0])
            core = np.ones(gaps.size, dtype=bool)
        else:
            gaps = np.diff(points)
            lo = points[0] if boundary is Boundary.LEFT_BOUNDED \
                else points[0] + buffer_len
            hi = points[-1] - buffer_len
            core = (points[:-1] >= lo) & (points[1:] <= hi)
        if gaps.size and gaps.min() < d_n * (1 - 1e-9) - 1e-9:
            raise AssertionError(
                f"epoch {n} start has interval {gaps.min()} below d({n})={d_n}")
        z = gaps[core] / d_n
        k = int(np.searchsorted(points, marked_rel))
        marked_alive = bool(k < points.size and points[k] == marked_rel)
        x0 = points[0] + shift
        summaries.append(EpochSummary(
            epoch=n,
            d_n=d_n,
            z_stride=1,
            z_samples=z,
            y=np.array([x0 / d_n]),
            first_point_survived=np.array([points[0] == first_rel]),
            origin_alive=np.array([marked_alive]),
            n_intervals=np.array([gaps.size]),
            core_sizes=np.array([int(core.sum())]),
        ))
        if n < n_epochs:
            rates = schedule.rates_for(n)
            alive = simulate_points_loop(points, periodic, circumference, rates, rng)
            points = points[alive]
            erased.append(int(np.count_nonzero(~alive)))
    return summaries, erased


def seed_sequence_rng(base_seed: int, replica: int = 0) -> np.random.Generator:
    """Replica ``replica``'s stream: the generator numpy seeds from
    SeedSequence(base_seed, spawn_key=(replica,))."""
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(replica,)))


def replicate_loop(spec, schedule, n_epochs: int, n_replicas: int, base_seed: int,
                   window: WindowPolicy) -> list[EpochSummary]:
    """Replica r runs alone on ``seed_sequence_rng(base_seed, r)``; pooled in order.
    A ``target_core`` window is sized once, by the pilot on replica 0's
    stream, and that interval count serves every replica."""
    if window.n_intervals is None:
        window = dataclasses.replace(window, n_intervals=_pilot_initial_count_loop(
            spec, schedule, n_epochs, window, seed_sequence_rng(base_seed, 0)))
    runs = [run_hcp_loop(spec, schedule, n_epochs, window, seed_sequence_rng(base_seed, r))[0]
            for r in range(n_replicas)]
    names = [f.name for f in dataclasses.fields(EpochSummary)[3:]]  # the array fields
    return [EpochSummary(parts[0].epoch, parts[0].d_n, 1,
                         *(np.concatenate([getattr(p, name) for p in parts]) for name in names))
            for parts in zip(*runs)]


def thin_rank_modulo(z: np.ndarray, core_sizes: np.ndarray, have: int,
                     want: int) -> np.ndarray:
    """``z``, the core z of replicas with ``core_sizes`` at stride ``have``, at
    stride ``want``, a multiple of ``have`` or 0; kept values are copied."""
    if want == have:
        return z
    if want == 0:
        return np.empty(0)
    held = -(-core_sizes // have)  # per replica
    index = np.arange(z.size) - np.repeat(np.cumsum(held) - held, held)
    return z[index % (want // have) == 0]


def thinned_z(summary: EpochSummary, k: int) -> tuple[int, np.ndarray]:
    """(stride, kept z) of ``replicate(..., z_per_epoch=k)`` for one epoch,
    from the summary of the same run with every core z kept: replica r keeps
    z_r[::S] for the smallest power of two S with sum_r ceil(core_r/S) <= k;
    S is 0, and nothing is kept, when k is 0 or no S keeps at most k."""
    assert summary.z_stride == 1
    cores = [int(c) for c in summary.core_sizes]
    if k == 0 or sum(c > 0 for c in cores) > k:
        return 0, np.empty(0)
    stride = 1
    while sum(math.ceil(c / stride) for c in cores) > k:
        stride *= 2
    ends = np.cumsum(cores)
    return stride, np.concatenate([summary.z_samples[end - c:end][::stride]
                                   for c, end in zip(cores, ends)])
