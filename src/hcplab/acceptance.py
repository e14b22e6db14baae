"""Acceptance criteria: the limiting behavior as machine-checkable tests.

Each criterion cross-validates Monte Carlo against the independent analytic
route at desk scale.  ``run_all`` executes them in order and reports one
pass/fail line each; the CLI ``validate`` subcommand and the pytest
acceptance suite both drive this module.

Tolerances follow the stated rules: Kolmogorov-Smirnov budgets use the 0.01
critical value at the realized sample size, frequency checks use three
binomial standard errors, so reduced sample sizes widen the tolerances
automatically.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .hcp import WindowPolicy, replicate, run_hcp
from .laws import DiracLaw, ExpGeometricLaw, GeometricLaw, ParetoHalfLaw, two_point_law
from .limits import EULER_GAMMA, first_point_limit_transform, limit_moment, z_cdf
from .measures import (AtomicMeasure, dirac, epoch_pushforward, iterate_hcp_measures,
                       survival_probability_exact)
from .sampling import LeftBounded, PeriodicRenewal, replica_rng
from .schedule import EpochSchedule, GeometricThresholds, east_schedule
from .stats import exchangeable_identity_check, ks_test, ks_test_discrete, ks_two_sample
from .transport import (deconvolve_m, figb_ratios, reassemble_z_law, u1_reader, un_transport,
                        c0_estimate, default_c0_grid)

# Frozen regression constants (first oracle run of this implementation).
SECOND_MOMENT_LIMIT = 3.5621452        # limit_moment(c0=1, k=2); oracle: quadrature
FIGB_OSCILLATION_FLOOR = 0.02          # trailing max-min of the non-converging ratios
KS_CRIT_001 = 1.628                    # sqrt(n)-scaled KS critical value at 0.01

# Initial intervals per replica in criteria 3 and 6 at scale 1; validate checks
# the scaled window against the memory budget before any criterion runs.
WINDOW_INTERVALS = 250_000


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} [{self.index:2d}] {self.name}: {self.detail} ({self.seconds:.1f}s)"

    def as_dict(self) -> dict:
        return {"index": self.index, "name": self.name, "passed": self.passed,
                "detail": self.detail, "seconds": round(self.seconds, 2)}


def _scaled(base: int, scale: float, minimum: int) -> int:
    return max(minimum, int(base * scale))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _one_epoch(m: int, left: float, right: float, linear: bool, rng) -> np.ndarray:
    """Final lengths of one epoch with activity range [1, 2) on a circle of
    ``m`` unit domains: a two-epoch run read at the start of epoch 2."""
    schedule = EpochSchedule(GeometricThresholds(2.0), left, right, linear)
    final = run_hcp(PeriodicRenewal(DiracLaw(1.0)), schedule, 2,
                    WindowPolicy(n_intervals=m), rng)[1]
    return final.z_samples * final.d_n


def criterion_one_epoch_exactness(scale: float, seed: int):
    m = _scaled(100_000, scale, 20_000)
    lengths = _one_epoch(m, 0.3, 0.7, False, replica_rng(seed, 1))
    oracle = epoch_pushforward(dirac(1.0, 64.0), 1.0, 2.0)
    ks = ks_test_discrete(lengths, oracle, n_bootstrap=200, seed=seed)
    n = lengths.size
    atom_ok, details = True, []
    for k in range(2, 6):
        q = oracle.mass_on(k - 0.5, k + 0.5)
        freq = float(np.mean(np.abs(lengths - k) < 1e-9))
        tol = 3 * math.sqrt(q * (1 - q) / n)
        atom_ok &= abs(freq - q) < tol
        details.append(f"|{freq:.4f}-{q:.4f}|<{tol:.4f}")
    passed = ks.p_value > 0.01 and atom_ok
    return passed, f"discrete-KS p={ks.p_value:.3f} (>0.01), atoms " + " ".join(details)


def criterion_rate_universality(scale: float, seed: int):
    m = _scaled(100_000, scale, 20_000)
    lengths_a = _one_epoch(m, 1.0, 1.0, False, replica_rng(seed, 2))
    lengths_b = _one_epoch(m, 0.0, 1.0, True, replica_rng(seed, 3))
    ks = ks_two_sample(lengths_a, lengths_b)
    # the analytic route never sees the rates: one pushforward serves both
    oracle = epoch_pushforward(dirac(1.0, 64.0), 1.0, 2.0)
    ks_a = ks_test_discrete(lengths_a, oracle, n_bootstrap=100, seed=seed + 1)
    ks_b = ks_test_discrete(lengths_b, oracle, n_bootstrap=100, seed=seed + 2)
    passed = ks.p_value > 0.01 and ks_a.p_value > 0.01 and ks_b.p_value > 0.01
    return passed, (f"two-sample KS p={ks.p_value:.3f}, vs shared analytic law "
                    f"p={ks_a.p_value:.3f}/{ks_b.p_value:.3f} (all >0.01)")


def criterion_universality_limit(scale: float, seed: int):
    n_per = _scaled(WINDOW_INTERVALS, scale, 25_000)
    pooled = replicate(PeriodicRenewal(GeometricLaw(0.1)), east_schedule(2.0), 10,
                       n_replicas=8, base_seed=seed + 30,
                       window=WindowPolicy(n_intervals=n_per))
    z = pooled[9].z_samples
    n = z.size
    d = ks_test(z, lambda v: z_cdf(1.0, v)).statistic
    budget = KS_CRIT_001 / math.sqrt(n) + 0.02
    return d <= budget, f"n={n} samples, KS distance {d:.4f} <= {budget:.4f}"


def criterion_survival(scale: float, seed: int):
    r = _scaled(100_000, scale, 10_000)
    pooled = replicate(LeftBounded(DiracLaw(1.0)), east_schedule(2.0), 4,
                       n_replicas=r, base_seed=seed + 40,
                       window=WindowPolicy(n_intervals=64), z_per_epoch=0)
    _, h = iterate_hcp_measures(dirac(1.0, 65536.0), GeometricThresholds(2.0), 12)
    parts, ok = [], True
    for n in (2, 3, 4):
        mc = float(pooled[n - 1].first_point_survived.mean())
        exact = survival_probability_exact(h, n - 1, 0.0)
        tol = 3 * math.sqrt(exact * (1 - exact) / r)
        ok &= abs(mc - exact) < tol
        parts.append(f"n={n}:|{mc:.4f}-{exact:.4f}|<{tol:.4f}")
    # slope of the survival exponent along the analytic table (the asymptotic
    # regime needs epochs beyond the runtime-bounded Monte Carlo range)
    ns = np.arange(2, 13)
    logd = (ns - 1) * math.log(2.0)
    logp = np.array([math.log(survival_probability_exact(h, int(n) - 1, 0.0)) for n in ns])
    slope = float(np.polyfit(logd, logp, 1)[0])
    ok &= abs(slope + 1.0) < 0.1
    parts.append(f"slope {slope:.3f} in -1+-0.1")
    return ok, ", ".join(parts)


def criterion_first_point(scale: float, seed: int):
    r = _scaled(8_000, scale, 1_000)
    pooled = replicate(LeftBounded(DiracLaw(1.0)), east_schedule(2.0), 10,
                       n_replicas=r, base_seed=seed + 50,
                       window=WindowPolicy(n_intervals=8192), z_per_epoch=0)
    y = pooled[9].y
    parts, ok = [], True
    for s in (0.5, 1.0, 2.0):
        e = np.exp(-s * y)
        emp = float(e.mean())
        se = float(e.std(ddof=1)) / math.sqrt(y.size)
        ref = first_point_limit_transform(1.0, 0.0, s)
        tol = 3 * se + 0.01
        ok &= abs(emp - ref) < tol
        parts.append(f"s={s}:|{emp:.4f}-{ref:.4f}|<{tol:.4f}")
    return ok, ", ".join(parts)


def criterion_moment_convergence(scale: float, seed: int):
    n_per = _scaled(WINDOW_INTERVALS, scale, 25_000)
    pooled = replicate(PeriodicRenewal(GeometricLaw(0.1)), east_schedule(2.0), 10,
                       n_replicas=8, base_seed=seed + 60,
                       window=WindowPolicy(n_intervals=n_per))
    z = pooled[9].z_samples
    mean = float(z.mean())
    m2 = float((z ** 2).mean())
    m2_ref = limit_moment(1.0, 2)
    ok = abs(mean - math.exp(EULER_GAMMA)) < 0.05
    ok &= abs(m2 - SECOND_MOMENT_LIMIT) < 0.1 * SECOND_MOMENT_LIMIT
    ok &= abs(m2_ref - SECOND_MOMENT_LIMIT) < 1e-4  # regression pin of the oracle
    return ok, (f"mean {mean:.4f} vs {math.exp(EULER_GAMMA):.4f} (+-0.05), "
                f"m2 {m2:.4f} vs frozen {SECOND_MOMENT_LIMIT} (+-10%)")


def criterion_figb(scale: float, seed: int):
    ratios_01, *oscillating = figb_ratios((0.1, 0.5, 0.8), 14, 10.0, 1.0 / 16.0,
                                          GeometricThresholds(2.0))
    tail = ratios_01[-5:]
    ok = all(0.98 <= v <= 1.02 for v in tail)
    parts = [f"q=0.1 tail in [{min(tail):.4f},{max(tail):.4f}] within [0.98,1.02]"]
    for q, ratios in zip((0.5, 0.8), oscillating):
        window = ratios[-8:]
        amp = max(window) - min(window)
        ok &= amp > FIGB_OSCILLATION_FLOOR
        parts.append(f"q={q} trailing amp {amp:.4f} > {FIGB_OSCILLATION_FLOOR}")
    return ok, ", ".join(parts)


def criterion_c0_classification(scale: float, seed: int):
    grid = default_c0_grid()
    parts, ok = [], True
    est = c0_estimate(dirac(1.0, 8.0), grid)
    ok &= est.converged and abs(est.estimate - 1.0) <= 1e-3
    parts.append(f"dirac {est.estimate:.5f}+-1e-3 conv={est.converged}")
    est = c0_estimate(GeometricLaw(0.1).atomic(512.0), grid)
    ok &= est.converged and abs(est.estimate - 1.0) <= 1e-3
    parts.append(f"geometric {est.estimate:.5f}+-1e-3 conv={est.converged}")
    est = c0_estimate(ParetoHalfLaw(), grid)
    ok &= est.converged and abs(est.estimate - 0.5) <= 0.02
    parts.append(f"pareto {est.estimate:.5f}+-0.02 conv={est.converged}")
    lam = 0.5
    law = ExpGeometricLaw(1.0 - math.exp(-lam))
    est = c0_estimate(law.atomic(120, l_max=float("inf")), grid)
    ok &= law.mean == math.inf and not est.converged
    parts.append(f"oscillating law conv={est.converged} (want False)")
    return ok, ", ".join(parts)


def criterion_property_suites(scale: float, seed: int):
    rng = replica_rng(seed, 90)
    parts, ok = [], True
    # pushforward conservation, support shift, transform identity
    worst_cons, worst_ident = 0.0, 0.0
    for _ in range(100):
        spacing = float(rng.choice([0.25, 0.5, 1.0]))
        d_min = spacing * int(rng.integers(1, 5))
        d_max = d_min * float(rng.uniform(1.2, 2.0))
        n_atoms = int(rng.integers(3, 30))
        pos = d_min + spacing * rng.choice(np.arange(0, 40), size=n_atoms, replace=False)
        mas = rng.random(n_atoms)
        mas /= mas.sum()
        mu = AtomicMeasure(pos, mas, l_max=80.0 * d_min)
        out = epoch_pushforward(mu, d_min, d_max)
        worst_cons = max(worst_cons, abs(out.total_mass - 1.0))
        if out.n_atoms:
            ok &= out.positions[0] >= d_max * (1 - 1e-9)
        s = rng.uniform(0.05, 3.0, size=20)
        lhs = 1.0 - out.transform(s)
        rhs = (1.0 - mu.transform(s)) * np.exp(mu.restricted(d_min, d_max).transform(s))
        worst_ident = max(worst_ident, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    ok &= worst_cons <= 1e-12 and worst_ident <= 1e-10
    parts.append(f"conservation {worst_cons:.1e}<=1e-12, transform identity "
                 f"{worst_ident:.1e}<=1e-10 (100 random lattice laws)")
    # deconvolution round trip
    z1 = epoch_pushforward(dirac(1.0, 48.0), 1.0, 2.0).rescaled(0.5)
    m = deconvolve_m(z1, 24.0)
    back = reassemble_z_law(m, 24.0)
    grid = np.arange(1.0, 23.5, 0.25)
    rt = float(np.max(np.abs(back.cdf(grid) - z1.cdf(grid))))
    ok &= rt <= 1e-10
    parts.append(f"deconvolve round-trip {rt:.1e}<=1e-10")
    # two-route transport agreement
    mu1 = dirac(1.0, 64.0)
    u1 = u1_reader(deconvolve_m(mu1, 64.0))
    d_of = GeometricThresholds(2.0)
    laws, _ = iterate_hcp_measures(mu1, d_of, 4)
    xs = np.array([0.05, 0.3, 0.7, 1.2, 2.6, 4.9])
    worst_rt = 0.0
    for n in (2, 3, 4):  # epoch n's own U1 against epoch 1's transported
        d = d_of(n)
        direct = u1_reader(deconvolve_m(laws[n - 1].rescaled(1.0 / d), 64.0 / d))
        worst_rt = max(worst_rt, float(np.max(np.abs(un_transport(direct, 1.0, xs)
                                                      - un_transport(u1, d, xs)))))
    ok &= worst_rt <= 1e-8
    parts.append(f"two-route transport {worst_rt:.1e}<=1e-8")
    # exchangeable permutation identities
    worst_ex = 0.0
    for k in range(1, 8):
        g = rng.uniform(0.2, 5.0, size=k)
        worst_ex = max(worst_ex, exchangeable_identity_check(g, "chain")[1])
        if k >= 2:
            worst_ex = max(worst_ex, exchangeable_identity_check(g, "full")[1])
    ok &= worst_ex <= 1e-10
    parts.append(f"exchangeable identities {worst_ex:.1e}<=1e-10 (k<=7)")
    # first-point immobility when lambda_right vanishes
    immobile = True
    spec = LeftBounded(two_point_law(1.0, 2.0))
    west = EpochSchedule(GeometricThresholds(2.0), left=1.0, right=0.0)
    for i in range(1000):
        summaries = run_hcp(spec, west, 2, WindowPolicy(n_intervals=12),
                            replica_rng(seed, 1000 + i))
        immobile &= bool(summaries[1].first_point_survived[0])
    ok &= immobile
    parts.append(f"lambda_right==0 immobility on 1000 runs: {immobile}")
    return ok, ", ".join(parts)


def criterion_determinism(scale: float, seed: int):
    from .cli import cmd_analytic, cmd_simulate, _load_config
    cfg = {"seed": seed + 7, "epochs": 3, "replicas": 3,
           "initial_law": {"kind": "dirac", "value": 1.0},
           "process": {"variant": "periodic"},
           "schedule": {"thresholds": "geometric", "a": 2.0, "rates": "east"},
           "window": {"n_intervals": 4000},
           "analytic": {"l_max": 400.0, "j_max": 64.0}}
    ok, parts = True, []
    with tempfile.TemporaryDirectory() as tmp:
        d1, d2 = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        os.makedirs(d1), os.makedirs(d2)
        cmd_simulate(cfg, d1)
        # rerun from the emitted manifest
        cfg2 = _load_config(os.path.join(d1, "manifest.json"))
        cmd_simulate(cfg2, d2)
        for name in ("samples.csv", "replicas.csv"):
            same = open(os.path.join(d1, name), "rb").read() == \
                open(os.path.join(d2, name), "rb").read()
            ok &= same
            parts.append(f"simulate/{name} identical={same}")
        a1, a2 = os.path.join(tmp, "c"), os.path.join(tmp, "d")
        os.makedirs(a1), os.makedirs(a2)
        cmd_analytic(cfg, a1)
        cmd_analytic(_load_config(os.path.join(a1, "manifest.json")), a2)
        for name in ("interval_law_epoch03.csv", "survival.csv", "c0_report.json"):
            same = open(os.path.join(a1, name), "rb").read() == \
                open(os.path.join(a2, name), "rb").read()
            ok &= same
            parts.append(f"analytic/{name} identical={same}")
    return ok, ", ".join(parts)


CRITERIA = [
    ("one-epoch exactness", criterion_one_epoch_exactness),
    ("rate universality", criterion_rate_universality),
    ("universality limit", criterion_universality_limit),
    ("survival probability", criterion_survival),
    ("first-point law", criterion_first_point),
    ("moment convergence", criterion_moment_convergence),
    ("transport-ratio reproduction", criterion_figb),
    ("c0 classification", criterion_c0_classification),
    ("property suites", criterion_property_suites),
    ("determinism", criterion_determinism),
]


def run_all(scale: float = 1.0, seed: int = 0, report=None) -> list[CriterionResult]:
    results = []
    for i, (name, fn) in enumerate(CRITERIA, start=1):
        t0 = time.time()
        try:
            passed, detail = fn(scale, seed)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        res = CriterionResult(i, name, bool(passed), detail, time.time() - t0)
        results.append(res)
        if report is not None:
            report(res.line())
    return results
