"""hcplab benchmark: CLI workloads timed end to end, and a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is the checkout's
``src/hcplab``, imported through PYTHONPATH.  Each workload is a closed loop
with a single client: a pass runs the workload's ``hcplab`` CLI commands one
at a time, each in a fresh interpreter, with ``replicate`` at its default of
one process.  The seed goes into the generated config; the program sees only
the config file.

  sim-wide  simulate, README config: long arrays through the epoch resolver
  sim-many  simulate, criterion-4 shape: ~5,000 short replicas, per-call cost
  exact     analytic, limits, reproduce-figb on the README config (no
            randomness; the seed only lands in the config)

Every command's output files are checked (checks.py), and every later pass
of a run must write byte-identical files.  A command that exits non-zero or
fails a check counts as failed.

--trace 0 runs passes until --seconds would be exceeded (at least two) and
reports the end-to-end metrics, each the median over the run:
  wall_s       one pass: every command process of the workload, spawn to exit.
  setup_s      spawn until ``import hcplab.cli`` returns, over every command
               process plus set-up-only starts up to five samples.
  peak_rss_mb  highest peak RSS of any command process in a pass, from each
               process's own rusage (wait4).

--trace 1 runs one untraced pass and one traced pass (tracing.py wraps the
module attributes each layer is called through) plus one ``-X importtime``
start-up, and reports the per-layer metrics.  Layers a workload does not
reach read 0; targets that no longer exist are listed as absent.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Details (every sample, provenance, load averages,
spans summary) go to perfbench/.runs/results/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, ".runs")

MIN_PASSES = 2          # timed passes per run, whatever --seconds says
SETUP_SAMPLES = 5       # set-up samples per run (passes plus set-up-only starts)
RUN_BUDGET_S = 170.0    # the whole run, start to exit, stays below this

README_CONFIG = {
    "epochs": 10,
    "replicas": 4,
    "initial_law": {"kind": "geometric", "q": 0.1},
    "process": {"variant": "periodic"},
    "schedule": {"thresholds": "geometric", "a": 2.0, "rates": "east"},
    "window": {"n_intervals": 200000, "buffer_factor": 16.0},
    "analytic": {"l_max": 51200.0, "j_max": 256.0},
    "figb": {"q": [0.1, 0.5, 0.8], "horizon": 14, "x": 10.0},
    "validate": {"scale": 1.0},
}

# acceptance criterion 4's shape at 5,000 replicas
MANY_CONFIG = {
    "epochs": 4,
    "replicas": 5000,
    "initial_law": {"kind": "dirac", "value": 1.0},
    "process": {"variant": "left_bounded"},
    "schedule": {"thresholds": "geometric", "a": 2.0, "rates": "east"},
    "window": {"n_intervals": 64, "buffer_factor": 16.0},
}


@dataclasses.dataclass(frozen=True)
class Workload:
    commands: tuple     # (hcplab command, check of its output directory), in order
    base_config: dict

    def config(self, seed: int) -> dict:
        return {"seed": seed, **self.base_config}


WORKLOADS = {
    "sim-wide": Workload((("simulate", checks.check_sim_wide),), README_CONFIG),
    "sim-many": Workload((("simulate", checks.check_sim_many),), MANY_CONFIG),
    "exact": Workload((("analytic", checks.check_analytic),
                       ("limits", checks.check_limits),
                       ("reproduce-figb", checks.check_figb)), README_CONFIG),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "epoch.resolve_s": "s", "epoch.calls": "count", "epoch.points": "count",
    "epoch.active": "count", "epoch.merges": "count", "epoch.merge_ratio": "ratio",
    "epoch.points_per_s": "points/s", "epoch.per_call_us": "us",
    "hcp.replicate_s": "s", "hcp.self_s": "s", "hcp.per_replica_ms": "ms",
    "sampling.sample_s": "s", "sampling.rng_s": "s",
    "cli.write_s": "s", "cli.rows": "count",
    "measures.iterate_s": "s", "measures.convolve_calls": "count",
    "measures.convolve_s": "s", "measures.atoms_max": "count",
    "transport.deconvolve_s": "s", "transport.c0_s": "s",
    "transport.lattice_s": "s", "transport.lattice_sites": "count",
    "limits.tables_s": "s", "limits.transforms_s": "s",
    "stats.import_s": "s", "laws.import_s": "s",
    "points_per_s": "points/s",
    "trace.overhead_s": "s", "trace.absent": "count",
    "cmd.simulate_s": "s", "cmd.analytic_s": "s", "cmd.limits_s": "s", "cmd.figb_s": "s",
}
COMMAND_METRICS = {"simulate": "cmd.simulate_s", "analytic": "cmd.analytic_s",
                   "limits": "cmd.limits_s", "reproduce-figb": "cmd.figb_s"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclasses.dataclass
class Proc:
    code: int
    wall: float
    setup: float | None
    rss_mib: float
    stderr: str


class Runner:
    """Launches hcplab processes for one run and keeps its deadline."""

    def __init__(self, run_dir: str, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=SRC)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            current = os.environ.get(var, "")
            threads = int(current) if current.isdigit() and int(current) > 0 else nproc
            self.env[var] = str(min(threads, nproc))

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def launch(self, hcplab_args=(), trace_path=None, py_flags=()) -> Proc:
        self.count += 1
        stamp = os.path.join(self.run_dir, f"p{self.count}.stamp")
        err_path = os.path.join(self.run_dir, f"p{self.count}.stderr")
        cmd = [sys.executable, *py_flags, os.path.join(HERE, "child.py"), stamp,
               trace_path or "-", *hcplab_args]
        with open(os.devnull, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, errors="replace") as fh:
            stderr = fh.read()
        setup = None
        if os.path.exists(stamp):
            with open(stamp) as fh:
                info = json.load(fh)
            if not os.path.abspath(info["hcplab"]).startswith(SRC + os.sep):
                raise BenchmarkError(f"imported hcplab from {info['hcplab']}, not {SRC}")
            setup = info["imported"] - t0
        return Proc(proc.returncode, t1 - t0, setup, usage.ru_maxrss / 1024.0, stderr)


def tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def data_rows(path: str) -> int:
    rows = 0
    for name in os.listdir(path):
        if name.endswith(".csv"):
            with open(os.path.join(path, name)) as fh:
                rows += sum(1 for ln in fh if not ln.startswith("#")) - 1
    return rows


def epoch_points(path: str, cfg: dict) -> int:
    """Points entering an epoch that runs, summed over replicas and epochs."""
    epoch, n_int = checks.columns(os.path.join(path, "replicas.csv"),
                                  "epoch", "n_intervals")
    # a periodic configuration has as many points as intervals, others one more
    extra_point = 0 if cfg["process"]["variant"] == "periodic" else 1
    runs = epoch < cfg["epochs"]
    return int(n_int[runs].sum()) + extra_point * int(runs.sum())


@dataclasses.dataclass
class Command:
    """One command process of a pass and the check of what it wrote."""
    name: str
    proc: Proc
    problems: list
    outputs: dict


def run_command(runner: Runner, name: str, check, cfg: dict, cfg_path: str,
                digests: dict, trace_path=None, inspect=False) -> Command:
    out = os.path.join(runner.run_dir, f"out{runner.count + 1}")
    proc = runner.launch([name, "--config", cfg_path, "--out", out], trace_path)
    problems, outputs = [], {}
    if proc.code != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"{name}: exit code {proc.code}: {tail[0]}")
    else:
        try:
            # a later pass must write the same bytes, which then share the verdict
            digest = tree_digest(out)
            if name not in digests:
                digests[name] = (digest, [f"{name}: {q}" for q in check(out, cfg)])
            first_digest, verdict = digests[name]
            problems += verdict
            if digest != first_digest:
                problems.append(f"{name}: outputs differ from the first pass of this run")
            if inspect:
                outputs["rows"] = data_rows(out)
                if name == "simulate":
                    outputs["points"] = epoch_points(out, cfg)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"{name}: output check raised {exc!r}")
    shutil.rmtree(out, ignore_errors=True)
    return Command(name, proc, problems, outputs)


def run_pass(runner: Runner, wl: Workload, cfg: dict, cfg_path: str, digests: dict,
             trace_dir=None, inspect=False) -> list[Command]:
    """Every command of the workload, one process after the other."""
    return [run_command(runner, name, check, cfg, cfg_path, digests,
                        trace_dir and os.path.join(trace_dir, f"spans-{name}.json"),
                        inspect)
            for name, check in wl.commands]


def timing(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    tail = None
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100.0) >= 10:
            tail = {"p": p, "value": float(np.percentile(values, p))}
            break
    return {"median": statistics.median(values), "tail": tail, "n": n}


def import_times(runner: Runner) -> dict:
    """Cumulative import time of each hcplab module, from -X importtime."""
    proc = runner.launch(py_flags=("-X", "importtime"))
    times = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                times[name.strip()] = int(cumulative) * 1e-6
    return times


def span_summary(span_lists: list) -> dict:
    """Per span name, over the spans of one or more processes: calls, total
    time, self time, duration of the first call in each process, extras."""
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "first_s": 0.0, "extra": defaultdict(int),
                               "atoms_max": 0})
    for spans in span_lists:
        covered = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += (span[2] - span[1]) + span[5]
        seen = set()
        for i, span in enumerate(spans):
            if span is None:
                continue
            name, t0, t1, _, extra, _ = span
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - covered[i]
            if name not in seen:
                seen.add(name)
                agg["first_s"] += t1 - t0
            for key, value in (extra or {}).items():
                if key == "atoms":
                    agg["atoms_max"] = max(agg["atoms_max"], value)
                else:
                    agg["extra"][key] += value
    return out


def layer_metrics(summary: dict, imports: dict, untraced: list[Command],
                  traced: list[Command], n_absent: int) -> dict:
    def total(name):
        return summary[name]["total_s"] if name in summary else 0.0

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    def extra(name, key):
        return summary[name]["extra"].get(key, 0) if name in summary else 0

    def ratio(a, b):
        return a / b if b else 0.0

    epoch = "hcplab.hcp._simulate_points"
    repl = "hcplab.cli.replicate"
    convolves = ("hcplab.measures.convolve", "hcplab.transport.convolve")
    cmds = [n for n in summary if n.startswith("hcplab.cli.cmd_")]
    resolve_s = total(epoch)
    points, active, merges = (extra(epoch, k) for k in ("points", "active", "merges"))
    m = {
        "epoch.resolve_s": resolve_s,
        "epoch.calls": calls(epoch),
        "epoch.points": points,
        "epoch.active": active,
        "epoch.merges": merges,
        "epoch.merge_ratio": ratio(merges, active),
        "epoch.points_per_s": ratio(points, resolve_s),
        "epoch.per_call_us": ratio(resolve_s, calls(epoch)) * 1e6,
        "hcp.replicate_s": total(repl),
        "hcp.self_s": summary[repl]["self_s"] if repl in summary else 0.0,
        "hcp.per_replica_ms": ratio(total(repl), extra(repl, "replicas")) * 1e3,
        "sampling.sample_s": total("hcplab.hcp.sample_spec"),
        "sampling.rng_s": total("hcplab.hcp.replica_rng"),
        "cli.write_s": sum(summary[n]["self_s"] for n in cmds),
        "cli.rows": sum(c.outputs.get("rows", 0) for c in traced),
        "measures.iterate_s": total("hcplab.cli.iterate_hcp_measures"),
        "measures.convolve_calls": sum(calls(n) for n in convolves),
        "measures.convolve_s": sum(total(n) for n in convolves),
        "measures.atoms_max": max([summary[n]["atoms_max"] for n in
                                   ("hcplab.cli.iterate_hcp_measures", *convolves)
                                   if n in summary] or [0]),
        "transport.deconvolve_s": total("hcplab.transport.deconvolve_m"),
        "transport.c0_s": total("hcplab.cli.c0_estimate"),
        "transport.lattice_s": total("hcplab.cli.u1_on_lattice"),
        "transport.lattice_sites": extra("hcplab.cli.u1_on_lattice", "sites"),
        "limits.tables_s": summary["hcplab.cli.z_cdf"]["first_s"]
        if "hcplab.cli.z_cdf" in summary else 0.0,
        "limits.transforms_s": total("hcplab.cli.g_infinity")
        + total("hcplab.cli.first_point_limit_transform"),
        "stats.import_s": imports.get("hcplab.stats", 0.0),
        "laws.import_s": imports.get("hcplab.laws", 0.0),
        "points_per_s": sum(ratio(c.outputs.get("points", 0), c.proc.wall - (c.proc.setup or 0.0))
                            for c in untraced),
        "trace.overhead_s": sum(c.proc.wall for c in traced) - sum(c.proc.wall for c in untraced),
        "trace.absent": n_absent,
    }
    for name, metric in COMMAND_METRICS.items():
        m[metric] = sum(c.proc.wall for c in untraced if c.name == name)
    return m


def provenance(seed: int, cfg: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "hcplab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    import scipy
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "config": cfg,
    }


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = WORKLOADS[name]
    cfg = wl.config(seed)
    started = time.monotonic()
    load_before = os.getloadavg()
    os.makedirs(RUNS, exist_ok=True)
    run_dir = os.path.join(RUNS, f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        runner = Runner(run_dir, started + RUN_BUDGET_S)
        cfg_path = os.path.join(run_dir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh, indent=2)
        digests: dict = {}
        if trace:
            untraced = run_pass(runner, wl, cfg, cfg_path, digests, inspect=True)
            traced = run_pass(runner, wl, cfg, cfg_path, digests, run_dir, inspect=True)
            span_lists, absent, observe_errors = [], set(), {}
            for cmd in traced:
                path = os.path.join(run_dir, f"spans-{cmd.name}.json")
                if os.path.exists(path):
                    with open(path) as fh:
                        dump = json.load(fh)
                    span_lists.append(dump["spans"])
                    absent.update(dump["absent"])
                    observe_errors.update(dump["observe_errors"])
            imports = import_times(runner)
            passes = [untraced, traced]
        else:
            passes = []
            window = time.monotonic()
            while True:
                t0 = time.monotonic()
                passes.append(run_pass(runner, wl, cfg, cfg_path, digests))
                took = time.monotonic() - t0
                elapsed = time.monotonic() - window
                if len(passes) >= MIN_PASSES and elapsed + took > seconds:
                    break
                if runner.remaining() < 2 * took + 10:
                    break
            setups = [c.proc.setup for p in passes for c in p if c.proc.setup is not None]
            while len(setups) < SETUP_SAMPLES and runner.remaining() > 20:
                probe = runner.launch()
                if probe.code == 0 and probe.setup is not None:
                    setups.append(probe.setup)
            if not setups:
                raise BenchmarkError("no process got as far as importing hcplab.cli")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    commands = [c for p in passes for c in p]
    failed = sum(1 for c in commands if c.problems)
    result = {
        "workload": name,
        "trace": trace,
        "provenance": provenance(seed, cfg),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "seconds": time.monotonic() - started,
        "attempted": len(commands),
        "failed": failed,
        "failed_frac": failed / len(commands),
        "problems": [q for c in commands for q in c.problems],
        "command_s": {n: [c.proc.wall for c in commands if c.name == n]
                      for n, _ in wl.commands},
    }
    if trace:
        summary = span_summary(span_lists)
        result["absent"] = sorted(absent)
        result["observe_errors"] = observe_errors
        result["spans"] = {k: {**v, "extra": dict(v["extra"])} for k, v in summary.items()}
        result["imports"] = {k: v for k, v in imports.items() if k.startswith("hcplab")}
        result["metrics"] = layer_metrics(summary, imports, untraced, traced, len(absent))
    else:
        result["samples"] = {
            "wall_s": [sum(c.proc.wall for c in p) for p in passes],
            "setup_s": setups,
            "peak_rss_mb": [max(c.proc.rss_mib for c in p) for p in passes],
        }
        result["timings"] = {k: timing(v) for k, v in result["samples"].items()}
        result["metrics"] = {k: statistics.median(result["samples"][k]) for k in END_TO_END}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hcplab", "cli.py")):
        print(f"perfbench: no hcplab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(RUNS, "results"), exist_ok=True)
    path = os.path.join(RUNS, "results",
                        f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=float)

    units = PER_LAYER if args.trace else END_TO_END
    for q in result["problems"]:
        print(f"FAILED: {q}")
    for key, values in result["command_s"].items():
        print(f"{key + ' s':<16} median {statistics.median(values):.4f} s, n={len(values)}")
    for key, t in result.get("timings", {}).items():
        tail = f"p{t['tail']['p']:g} {t['tail']['value']:.4f}" if t["tail"] \
            else "no percentile with 10 samples beyond it"
        print(f"{key:<16} median {t['median']:.4f} {END_TO_END[key]}, {tail}, n={t['n']}")
    if args.trace:
        for key, value in result["metrics"].items():
            print(f"{key:<24} {value:.6g} {units[key]}")
        if result["absent"]:
            print(f"absent spans: {', '.join(result['absent'])}")
    print(f"failed_frac {result['failed']}/{result['attempted']}; "
          f"load {result['load_before'][0]:.2f} -> {result['load_after'][0]:.2f}; "
          f"details in {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
