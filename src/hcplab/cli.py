"""Batch entry point: orchestration, persistence, reproduction (the config
schema is in ``schema``).

Subcommands: simulate, analytic, limits, validate, reproduce-figb.
Configs are JSON; every run emits a manifest.json that reproduces the run
byte for byte when passed back through --config.  Every file goes through
``_write`` (a CSV: the provenance line, the file's own comment and column
lines, its rows) or ``_write_json``.
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
from .hcp import WindowExhaustedError, WindowTooLargeError, check_window, replicate, z_held
from .sampling import ExchangeableMixture
from .schedule import (ArithmeticThresholds, ExplicitThresholds, GeometricThresholds,
                       ScheduleError)
from .transport import c0_estimate, figb_ratios, u1_reader, un_transport


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


def _save(out: str, name: str, *parts) -> None:
    """The one place a command opens a file for writing: the strings of each
    iterable of ``parts`` in turn, as they come."""
    with open(os.path.join(out, name), "w") as fh:
        for part in parts:
            fh.writelines(part)


def _write(out: str, name: str, cfg: dict, head: str, chunks) -> None:
    """A CSV: the provenance line, then ``head`` (the file's own comment and
    column lines), then the row chunks."""
    _save(out, name, (f"# hcplab {__version__} config={json.dumps(cfg, sort_keys=True)}\n",
                      head), chunks)


def _write_json(out: str, name: str, obj) -> None:
    _save(out, name, (json.dumps(obj, indent=2, sort_keys=True), "\n"))


def _write_manifest(out: str, command: str, cfg: dict) -> None:
    _write_json(out, "manifest.json", {"command": command, "package": "hcplab",
                                       "version": __version__, "config": cfg})


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


def _seed(cfg: dict) -> int:
    return field(cfg, "seed", int, lambda n: n >= 0, "an integer >= 0 (or --seed)", 0)


def float_reprs(v: np.ndarray) -> list[str]:
    """``list(map(repr, v.tolist()))`` for float64 ``v``, each distinct value
    formatted once when at most half are distinct: kept z on a lattice hold
    few.  Values are keyed on their bits, so -0.0 and 0.0 stay apart."""
    bits, inverse = np.unique(v.view(np.int64), return_inverse=True)
    if 2 * bits.size > v.size:  # sharing would cost more than it saves
        return list(map(repr, v.tolist()))
    return np.array(list(map(repr, bits.view(np.float64).tolist())), object)[inverse].tolist()


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

    def samples():  # per epoch, its stride line, then one chunk per replica
        for summary in pooled:
            yield f"# epoch {summary.epoch} stride {summary.z_stride}\n"
            if not summary.z_stride:
                continue
            # a replica's rows are head + z + tail for each z it holds
            z = float_reprs(summary.z_samples)
            stops = np.cumsum(z_held(summary.core_sizes, summary.z_stride)).tolist()
            for r, (y, f, o, lo, hi) in enumerate(zip(
                    summary.y.tolist(), summary.first_point_survived.tolist(),
                    summary.origin_alive.tolist(), [0] + stops[:-1], stops)):
                if lo < hi:
                    head, tail = f"{r},{summary.epoch},", f",{y!r},{int(f)},{int(o)}\n"
                    yield head + (tail + head).join(z[lo:hi]) + tail

    def replicas():  # one chunk per epoch
        for prior, summary in zip(pooled[:1] + pooled, pooled):  # prior: the epoch before
            epoch = f"{summary.epoch},{float(summary.d_n)!r}"
            ints = [c.astype(np.int64).tolist() for c in
                    (summary.first_point_survived, summary.origin_alive,
                     prior.n_intervals - summary.n_intervals, summary.n_intervals,
                     summary.core_sizes)]
            yield "".join(f"{r},{epoch},{y!r},{f},{o},{m},{n},{c}\n" for r, (y, f, o, m, n, c)
                          in enumerate(zip(summary.y.tolist(), *ints)))

    _write(out, "samples.csv", cfg,
           "# per epoch, every S-th core z of each replica (in-replica index i with "
           "i % S == 0), S the smallest power of two keeping at most samples_per_epoch "
           "values; S = 0 keeps none\nreplica,epoch,z,y,first_point_survived,origin_alive\n",
           samples())
    _write(out, "replicas.csv", cfg, "replica,epoch,d_n,y,first_point_survived,origin_alive,"
           "merges_prior,n_intervals,core_size\n", replicas())
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
    est = c0_estimate(c0_law, grid / schedule.d(1))  # the grid is in units of 1 / d(1)
    laws, h = iterate_hcp_measures(mu1, schedule.d, n_epochs)
    for n, mu in enumerate(laws, start=1):
        if mu.deficit > deficit_bound:
            msg = (f"truncation deficit {mu.deficit:.3e} at epoch {n} exceeds "
                   f"analytic.deficit_bound = {deficit_bound!r}; raise analytic.l_max, "
                   f"now {l_max!r}")
            if strict:
                raise MeasureError(msg + ", or analytic.deficit_bound")
            print(f"warning: {msg}", file=sys.stderr)
    for n, mu in enumerate(laws, start=1):
        _write(out, f"interval_law_epoch{n:02d}.csv", cfg,
               f"# l_max={mu.l_max!r} deficit={mu.deficit!r}\nposition,mass\n",
               ["".join(f"{p!r},{w!r}\n" for p, w in
                        zip(mu.positions.tolist(), mu.masses.tolist()))])
    _write(out, "active_mass.csv", cfg, "epoch,d_n,active_mass\n",
           ["".join(f"{n},{schedule.d(n)!r},{mass!r}\n" for n, mass in enumerate(h, start=1))])
    _write(out, "survival.csv", cfg, "epochs_elapsed,d_next,survival_probability\n",
           ["# rates do not fix lambda_left = gamma * lambda_right: no survival formula "
            "applies\n" if schedule.gamma is None else "".join(
                f"{n},{schedule.d(n + 1)!r},{survival_probability_exact(h, n, schedule.gamma)!r}\n"
                for n in range(1, n_epochs + 1))])
    # transported primitive probes from the epoch-1 law, in units of d(1), where
    # epoch n's threshold is d(n) / d(1); deconvolve_m is looked up in transport
    # at call time, where perfbench's tracer wraps it
    from .transport import deconvolve_m
    u1 = u1_reader(deconvolve_m(laws[0].rescaled(1.0 / schedule.d(1)), j_max))
    d = np.array([schedule.d(n) for n in range(1, n_epochs + 1)]) / schedule.d(1)
    xs = np.array(probe_x, dtype=np.float64)
    n, k = np.nonzero(d[:, None] * (1 + xs) - 1 <= j_max - 1)  # epoch by epoch, probes in order
    _write(out, "transported_primitive.csv", cfg, "# a row for each epoch n and probe x with "
           "(d(n)/d(1))*(1 + x) - 1 <= analytic.j_max - 1; m is inverted no further\n"
           "epoch,x,u_n\n", ["".join(f"{i + 1},{probe_x[j]!r},{v!r}\n" for i, j, v in zip(
               n.tolist(), k.tolist(), un_transport(u1, d[n], xs[k]).tolist()))])
    _write_json(out, "c0_report.json", {"estimate": est.estimate, "converged": est.converged,
                                        "s_min": float(grid.min()), "s_max": float(grid.max())})
    _write_manifest(out, "analytic", cfg)
    return 0


def cmd_limits(cfg: dict, out: str) -> int:
    c0 = float(field(cfg, "limits.c0", NUMBER, lambda v: 0 <= v <= 1, "a number in [0, 1]", 1.0))
    gamma = float(field(cfg, "limits.gamma", NUMBER, lambda v: v >= 0, "a number >= 0", 0.0))
    xs = np.arange(1.0, 16.0 + 1e-9, 1.0 / 32.0)
    _write(out, "limit_cdf.csv", cfg, "x,z_cdf\n",
           ["".join(f"{x!r},{v!r}\n" for x, v in zip(xs.tolist(), z_cdf(c0, xs).tolist()))])
    ss = np.concatenate(([0.0], np.geomspace(1e-3, 10.0, 100)))
    _write(out, "limit_transforms.csv", cfg, "s,interval_transform,first_point_transform\n",
           ["".join(f"{s!r},{g!r},{f!r}\n" for s, g, f in
                    zip(ss.tolist(), g_infinity(c0, ss).tolist(),
                        first_point_limit_transform(c0, gamma, ss).tolist()))])
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
    d_of = ArithmeticThresholds() if arithmetic else GeometricThresholds(2.0)
    ratios = figb_ratios(qs, horizon, x, spacing, d_of)
    _write(out, "transport_ratio.csv", cfg, "q,n,d_n,ratio\n",
           ["".join(f"{q!r},{n},{d_of(n)!r},{r!r}\n" for q, row in zip(qs, ratios)
                    for n, r in enumerate(row, start=1))])
    _write_manifest(out, "reproduce-figb", cfg)
    return 0


def cmd_validate(cfg: dict, out: str) -> int:
    from .acceptance import WINDOW_INTERVALS, run_all
    scale = float(field(cfg, "validate.scale", NUMBER, positive, "a positive number", 1.0))
    check_window(WINDOW_INTERVALS * scale,
                 "validate.scale, which scales the window of criteria 3 and 6")
    results = run_all(scale=scale, seed=_seed(cfg), report=print)
    _write_json(out, "validation.json", [r.as_dict() for r in results])
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
