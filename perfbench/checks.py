"""Correctness checks on the files each hcplab command wrote.

Every check reads only the command's output directory and compares it with
the other route of the program or with a frozen constant.  A check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# sqrt(n)-scaled Kolmogorov-Smirnov critical value at level 0.01, and the
# slack for the finite-epoch bias, as in acceptance criterion 3.
KS_CRIT_001 = 1.628
KS_SLACK = 0.02

# survival_probability_exact(h, n - 1, 0.0) for n = 2, 3, 4, with h the active
# masses of iterate_hcp_measures(dirac(1.0, 65536.0), 2 ** (n - 1), 12)
# (acceptance criterion 4), frozen from the exact engine.
SURVIVAL_EXACT = {2: 0.36787944117144233, 3: 0.15987974607969388,
                  4: 0.07480600302648492}
# The check runs at every seed the benchmark is given, so the band is 4 sigma
# rather than criterion 4's 3: at 3 sigma one seed in ~125 fails by chance.
SURVIVAL_SIGMAS = 4.0

EULER_GAMMA = 0.5772156649015329
LIMIT_MEAN_TOL = 1e-3
C0_TOL = 1e-3
FIGB_TAIL_BAND = (0.98, 1.02)       # criterion 7, q = 0.1, last five ratios
FIGB_OSCILLATION_FLOOR = 0.02       # criterion 7, q = 0.5, 0.8, last eight


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Column names and the numeric rows of an hcplab CSV (comments skipped)."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{os.path.basename(path)}: no header")
    names = lines[0].strip().split(",")
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2) if len(lines) > 1 \
        else np.empty((0, len(names)))
    return names, rows


def columns(path: str, *wanted: str) -> list[np.ndarray]:
    names, rows = read_csv(path)
    return [rows[:, names.index(w)] for w in wanted]


def check_sim_wide(out: str, cfg: dict) -> list[str]:
    """Epoch-10 z samples against the frozen c0 = 1 limit CDF (criterion 3)."""
    epoch, z = columns(os.path.join(out, "samples.csv"), "epoch", "z")
    z = np.sort(z[epoch == cfg["epochs"]])
    n = z.size
    if n < 1000:
        return [f"only {n} z samples at epoch {cfg['epochs']}"]
    x_ref, f_ref = columns(os.path.join(HERE, "z_cdf_c0_1.csv"), "x", "z_cdf")
    cdf = np.interp(z, x_ref, f_ref, left=0.0, right=1.0)
    d = max(float(np.max(np.arange(1, n + 1) / n - cdf)),
            float(np.max(cdf - np.arange(0, n) / n)))
    budget = KS_CRIT_001 / math.sqrt(n) + KS_SLACK
    return [] if d <= budget else [f"KS distance {d:.4f} > {budget:.4f} (n={n})"]


def check_sim_many(out: str, cfg: dict) -> list[str]:
    """First-point survival frequencies against the exact probabilities."""
    epoch, survived = columns(os.path.join(out, "replicas.csv"),
                              "epoch", "first_point_survived")
    problems = []
    for n, exact in SURVIVAL_EXACT.items():
        at_n = survived[epoch == n]
        if at_n.size != cfg["replicas"]:
            problems.append(f"epoch {n}: {at_n.size} replicas, expected {cfg['replicas']}")
            continue
        freq = float(at_n.mean())
        tol = SURVIVAL_SIGMAS * math.sqrt(exact * (1 - exact) / at_n.size)
        if abs(freq - exact) >= tol:
            problems.append(f"epoch {n}: survival {freq:.4f} vs exact {exact:.4f} (tol {tol:.4f})")
    return problems


def check_analytic(out: str, cfg: dict) -> list[str]:
    """c0 report, survival from the active masses, and every epoch law."""
    problems = []
    with open(os.path.join(out, "c0_report.json")) as fh:
        c0 = json.load(fh)
    if not c0["converged"] or abs(c0["estimate"] - 1.0) > C0_TOL:
        problems.append(f"c0 report {c0}")
    h, = columns(os.path.join(out, "active_mass.csv"), "active_mass")
    n, p = columns(os.path.join(out, "survival.csv"), "epochs_elapsed",
                   "survival_probability")
    if n.size != cfg["epochs"]:
        problems.append(f"survival.csv has {n.size} rows, expected {cfg['epochs']}")
    else:
        expected = np.exp(-np.cumsum(h)[n.astype(int) - 1])
        if not np.allclose(p, expected, rtol=1e-12, atol=0.0):
            problems.append("survival.csv differs from exp(-sum h) of active_mass.csv")
    for e in range(1, cfg["epochs"] + 1):
        if not os.path.exists(os.path.join(out, f"interval_law_epoch{e:02d}.csv")):
            problems.append(f"interval_law_epoch{e:02d}.csv missing")
    return problems


def check_limits(out: str, cfg: dict) -> list[str]:
    """Mean implied by limit_cdf.csv against e^gamma (criterion 6)."""
    x, f = columns(os.path.join(out, "limit_cdf.csv"), "x", "z_cdf")
    mean = float(x[0] + np.trapezoid(1.0 - f, x))
    target = math.exp(EULER_GAMMA)
    return [] if abs(mean - target) <= LIMIT_MEAN_TOL else \
        [f"mean of limit_cdf.csv {mean:.6f} vs e^gamma {target:.6f}"]


def check_figb(out: str, cfg: dict) -> list[str]:
    """Transport ratios: convergence for q = 0.1, oscillation otherwise."""
    q, ratio = columns(os.path.join(out, "transport_ratio.csv"), "q", "ratio")
    problems = []
    lo, hi = FIGB_TAIL_BAND
    tail = ratio[np.isclose(q, 0.1)][-5:]
    if tail.size != 5 or not np.all((tail >= lo) & (tail <= hi)):
        problems.append(f"q=0.1 tail {tail.tolist()} outside [{lo}, {hi}]")
    for qv in (0.5, 0.8):
        window = ratio[np.isclose(q, qv)][-8:]
        amp = float(window.max() - window.min()) if window.size == 8 else 0.0
        if amp <= FIGB_OSCILLATION_FLOOR:
            problems.append(f"q={qv} trailing amplitude {amp:.4f} <= {FIGB_OSCILLATION_FLOOR}")
    return problems
