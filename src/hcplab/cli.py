"""Batch entry point: orchestration, persistence, reproduction (the config
schema is in ``schema``).

Subcommands: simulate, analytic, limits, validate, reproduce-figb.
Configs are JSON; every run emits a manifest.json that reproduces the run
byte for byte when passed back through --config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .budget import BudgetError
from .epoch import StateSpaceError
from .laws import SamplingContractError
from .limits import first_point_limit_transform, g_infinity, z_cdf
from .measures import MeasureError, iterate_hcp_measures, survival_probability_exact
from .schema import (NUMBER, ConfigError, build_analytic, build_schedule, build_spec,
                     build_window, epoch_count, field, numbers, positive)
from .hcp import (WindowExhaustedError, WindowTooLargeError, check_window, float_reprs,
                  replicate)
from .sampling import ExchangeableMixture
from .schedule import ExplicitThresholds, ScheduleError
from .transport import c0_estimate, deconvolve_m, figb_ratios, u1_from_m, un_transport


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _prepare_out(out: str, overwrite: bool) -> str:
    try:
        os.makedirs(out, exist_ok=True)
        entries = os.listdir(out)
    except OSError as exc:  # e.g. a file, or a path below one
        raise ConfigError(f"--out names no usable directory: {exc}") from None
    if entries and not overwrite:
        raise ConfigError(f"output directory {out!r} is not empty; pass --overwrite")
    return out


def _write_manifest(out: str, command: str, cfg: dict) -> None:
    manifest = {"command": command, "package": "hcplab", "version": __version__,
                "config": cfg}
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # RecursionError: too deep
        raise ConfigError(f"--config names a file it cannot read: {exc}") from None
    if isinstance(cfg, dict) and "config" in cfg and "command" in cfg:  # a manifest: unwrap
        cfg = cfg["config"]
    if not isinstance(cfg, dict):
        raise ConfigError(f"--config {path}: top level must be an object")
    return cfg


def _provenance_header(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True)
    return f"# hcplab {__version__} config={blob}\n"


def _seed(cfg: dict) -> int:
    return field(cfg, "seed", int, lambda n: n >= 0, "an integer >= 0 (or --seed)", 0)


def _write_law(path: str, mu) -> None:
    """One interval law as its truncation header and (position, mass) rows."""
    with open(path, "w") as fh:
        fh.write(f"# l_max={mu.l_max!r} deficit={mu.deficit!r}\n")
        fh.write("position,mass\n")
        fh.write("".join(f"{p!r},{w!r}\n" for p, w in
                         zip(mu.positions.tolist(), mu.masses.tolist())))


def _below_d1(knob: str, detail: str, schedule) -> ConfigError:
    """An initial length below d(1): the law at ``knob`` or d(1) must change."""
    explicit = isinstance(schedule.thresholds, ExplicitThresholds)
    return ConfigError(f"config field '{knob}': {detail}"
                       + (" (d(1) is schedule.values[0])" if explicit else ""))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, out: str) -> int:
    spec = build_spec(cfg)
    schedule = build_schedule(cfg)
    window = build_window(cfg)
    n_epochs = epoch_count(cfg, schedule, default=2)
    n_replicas = field(cfg, "replicas", int, lambda n: 1 <= n <= 1 << 32,
                       "from 1 to 2^32 (or --replicas)", 1)
    cap = field(cfg, "samples_per_epoch", int, lambda n: n >= 0, "an integer >= 0", 50_000)
    knob = "process.components" if isinstance(spec, ExchangeableMixture) else "initial_law"
    try:
        pooled = replicate(spec, schedule, n_epochs, n_replicas, _seed(cfg), window,
                           z_per_epoch=cap)
    except WindowExhaustedError as exc:
        raise ConfigError(f"{exc} (window.n_intervals or window.target_core)") from None
    except StateSpaceError as exc:
        raise _below_d1(knob, str(exc), schedule) from None
    except SamplingContractError as exc:  # e.g. a lattice variant's non-integer gap
        variant = field(cfg, "process.variant", str, default="periodic")
        raise ConfigError(f"config field '{knob}': {exc} under process.variant "
                          f"{variant!r}") from None
    except WindowTooLargeError as exc:
        knob = "n_intervals" if window.n_intervals is not None else "target_core"
        raise ConfigError(f"config field 'window.{knob}': need a window within the float "
                          f"range, got {getattr(window, knob)}: {exc}") from None
    with open(os.path.join(out, "samples.csv"), "w") as fh:
        fh.write(_provenance_header(cfg))
        fh.write("# per epoch, every S-th core z of each replica (in-replica index i with "
                 "i % S == 0), S the smallest power of two keeping at most samples_per_epoch "
                 "values; S = 0 keeps none\n")
        fh.write("replica,epoch,z,y,first_point_survived,origin_alive\n")
        for summary in pooled:
            fh.write(f"# epoch {summary.epoch} stride {summary.z_stride}\n")
            if not summary.z_stride:
                continue
            # a replica's rows are head + z + tail for each z it holds
            held = -(-summary.core_sizes // summary.z_stride)
            z = float_reprs(summary.z_samples)
            stops = np.cumsum(held).tolist()
            for r, (y, f, o, lo, hi) in enumerate(zip(
                    summary.y.tolist(), summary.first_point_survived.tolist(),
                    summary.origin_alive.tolist(), [0] + stops[:-1], stops)):
                if lo < hi:
                    head, tail = f"{r},{summary.epoch},", f",{y!r},{int(f)},{int(o)}\n"
                    fh.write(head + (tail + head).join(z[lo:hi]) + tail)
    with open(os.path.join(out, "replicas.csv"), "w") as fh:
        fh.write(_provenance_header(cfg))
        fh.write("replica,epoch,d_n,y,first_point_survived,origin_alive,"
                 "merges_prior,n_intervals,core_size\n")
        for prior, summary in zip(pooled[:1] + pooled, pooled):  # prior: the epoch before
            epoch = f"{summary.epoch},{float(summary.d_n)!r}"
            ints = [c.astype(np.int64).tolist() for c in
                    (summary.first_point_survived, summary.origin_alive,
                     prior.n_intervals - summary.n_intervals, summary.n_intervals,
                     summary.core_sizes)]
            fh.write("".join(f"{r},{epoch},{y!r},{f},{o},{m},{n},{c}\n" for r, (y, f, o, m, n, c)
                             in enumerate(zip(summary.y.tolist(), *ints))))
    _write_manifest(out, "simulate", cfg)
    return 0


def cmd_analytic(cfg: dict, out: str, strict: bool = False) -> int:
    schedule = build_schedule(cfg)
    n_epochs = epoch_count(cfg, schedule, default=4)
    l_max, deficit_bound, probe_x, j_max, mu1, c0_law, grid = build_analytic(cfg, schedule, n_epochs)
    if np.any(mu1.positions[:1] < schedule.d(1) * (1 - 1e-12)):
        raise _below_d1("initial_law", f"initial law has an atom at {float(mu1.positions[0])!r} "
                        f"below d(1) = {schedule.d(1)!r}", schedule)
    # before the iteration: a c0 refusal costs no work, and the grid is not
    # allocated on top of the iteration's heap
    est = c0_estimate(c0_law, grid)
    laws, h = iterate_hcp_measures(mu1, schedule.d, n_epochs)
    for n, mu in enumerate(laws, start=1):
        if mu.deficit > deficit_bound:
            msg = (f"truncation deficit {mu.deficit:.3e} at epoch {n} exceeds "
                   f"analytic.deficit_bound = {deficit_bound!r}; raise analytic.l_max, "
                   f"now {l_max!r}")
            if strict:
                raise MeasureError(msg + ", or analytic.deficit_bound")
            print(f"warning: {msg}", file=sys.stderr)
    header = _provenance_header(cfg)
    for n, mu in enumerate(laws, start=1):
        _write_law(os.path.join(out, f"interval_law_epoch{n:02d}.csv"), mu)
    with open(os.path.join(out, "active_mass.csv"), "w") as fh:
        fh.write(header)
        fh.write("epoch,d_n,active_mass\n")
        fh.write("".join(f"{n},{schedule.d(n)!r},{mass!r}\n"
                         for n, mass in enumerate(h, start=1)))
    with open(os.path.join(out, "survival.csv"), "w") as fh:
        fh.write(header)
        fh.write("epochs_elapsed,d_next,survival_probability\n")
        if schedule.gamma is None:
            fh.write("# rates do not fix lambda_left = gamma * lambda_right: "
                     "no survival formula applies\n")
        else:
            fh.write("".join(
                f"{n},{schedule.d(n + 1)!r},{survival_probability_exact(h, n, schedule.gamma)!r}\n"
                for n in range(1, n_epochs + 1)))
    # transported primitive probes from the epoch-1 law
    z1 = laws[0].rescaled(1.0 / schedule.d(1))
    u1 = u1_from_m(deconvolve_m(z1, j_max))
    with open(os.path.join(out, "transported_primitive.csv"), "w") as fh:
        fh.write(header)
        fh.write("epoch,x,u_n\n")
        fh.write("".join(f"{n},{x!r},{un_transport(u1, schedule.d(n), float(x))!r}\n"
                         for n in range(1, n_epochs + 1) for x in probe_x
                         if schedule.d(n) * (1 + float(x)) - 1 <= j_max - 1))
    with open(os.path.join(out, "c0_report.json"), "w") as fh:
        json.dump({"estimate": est.estimate, "converged": est.converged,
                   "s_min": float(grid.min()), "s_max": float(grid.max())},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "analytic", cfg)
    return 0


def cmd_limits(cfg: dict, out: str) -> int:
    c0 = float(field(cfg, "limits.c0", NUMBER, lambda v: 0 <= v <= 1, "a number in [0, 1]", 1.0))
    gamma = float(field(cfg, "limits.gamma", NUMBER, lambda v: v >= 0, "a number >= 0", 0.0))
    xs = np.arange(1.0, 16.0 + 1e-9, 1.0 / 32.0)
    with open(os.path.join(out, "limit_cdf.csv"), "w") as fh:
        fh.write(_provenance_header(cfg))
        fh.write("x,z_cdf\n")
        fh.write("".join(f"{x!r},{v!r}\n" for x, v in
                         zip(xs.tolist(), z_cdf(c0, xs).tolist())))
    ss = np.concatenate(([0.0], np.geomspace(1e-3, 10.0, 100)))
    with open(os.path.join(out, "limit_transforms.csv"), "w") as fh:
        fh.write(_provenance_header(cfg))
        fh.write("s,interval_transform,first_point_transform\n")
        fh.write("".join(f"{s!r},{g!r},{f!r}\n" for s, g, f in
                         zip(ss.tolist(), g_infinity(c0, ss).tolist(),
                             first_point_limit_transform(c0, gamma, ss).tolist())))
    _write_manifest(out, "limits", cfg)
    return 0


def cmd_reproduce_figb(cfg: dict, out: str) -> int:
    qs = numbers(cfg, "figb.q", lambda q: 0 < q < 1, "a number in (0, 1), the law being "
                 "exp_geometric with p = 1 - q", [0.1, 0.5, 0.8])
    horizon = field(cfg, "figb.horizon", int, lambda n: n >= 1, "at least 1", 14)
    x = float(field(cfg, "figb.x", NUMBER, positive, "a positive number", 10.0))
    spacing = float(field(cfg, "figb.lattice", NUMBER, lambda v: 0 < v < 2 * np.e,
                          "a positive number below 2e, so that the law's first atom e does not "
                          "round to site 0", 1.0 / 16.0))
    arithmetic = field(cfg, "figb.arithmetic", bool, need="true or false", default=False)
    d_of = (lambda n: float(n)) if arithmetic else (lambda n: 2.0 ** (n - 1))
    ratios = figb_ratios(qs, horizon, x, spacing, d_of)
    with open(os.path.join(out, "transport_ratio.csv"), "w") as fh:
        fh.write(_provenance_header(cfg))
        fh.write("q,n,d_n,ratio\n")
        fh.write("".join(f"{q!r},{n},{d_of(n)!r},{r!r}\n" for q, row in zip(qs, ratios)
                         for n, r in enumerate(row, start=1)))
    _write_manifest(out, "reproduce-figb", cfg)
    return 0


def cmd_validate(cfg: dict, out: str) -> int:
    from .acceptance import run_all
    scale = float(field(cfg, "validate.scale", NUMBER, positive, "a positive number", 1.0))
    check_window(250_000 * scale, "validate.scale, which scales the window of criteria 3 and 6")
    results = run_all(scale=scale, seed=_seed(cfg), report=print)
    with open(os.path.join(out, "validation.json"), "w") as fh:
        json.dump([r.as_dict() for r in results], fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "validate", cfg)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hcplab",
        description="Hierarchical coalescence: simulator and exact analytics")
    parser.add_argument("command",
                        choices=["simulate", "analytic", "limits", "validate",
                                 "reproduce-figb"])
    parser.add_argument("--config", help="JSON config (or a manifest.json)")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", default="hcplab_out", help="output directory")
    parser.add_argument("--replicas", type=int, help="override replica count")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2, instead of warning, when a law's truncation "
                             "deficit exceeds analytic.deficit_bound")
    parser.add_argument("--overwrite", action="store_true",
                        help="allow writing into a nonempty output directory")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config) if args.config else {}
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.replicas is not None:
            cfg["replicas"] = args.replicas
        out = _prepare_out(args.out, args.overwrite)
        if args.command == "analytic":
            return cmd_analytic(cfg, out, strict=args.strict)
        return {"simulate": cmd_simulate, "limits": cmd_limits, "validate": cmd_validate,
                "reproduce-figb": cmd_reproduce_figb}[args.command](cfg, out)
    except (ConfigError, ScheduleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except MeasureError as exc:
        print(f"measure error: {exc}", file=sys.stderr)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
