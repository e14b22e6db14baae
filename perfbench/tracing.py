"""Outside-in spans around the calls into each hcplab layer.

The wrappers replace module attributes that callers look up at call time,
so the program itself is not edited.  Each span is kept in memory as
(name, start, end, parent, extra, observe_s) and written out once the
command returns.  ``extra`` holds counts read from the arguments or the
result after the span has closed; ``observe_s`` is the time that reading
took, which the harness subtracts from the parent's self time.

A target that no longer exists is reported as absent, so refactors that
rename or remove a function leave the benchmark running.
"""

from __future__ import annotations

import importlib
import json
import math
import time

import numpy as np


def _epoch_counts(args, kwargs, result):
    points, periodic, circumference, rates = args[:4]
    if periodic:
        gaps = np.empty(points.size)
        gaps[:-1] = np.diff(points)
        gaps[-1] = circumference - (points[-1] - points[0])
    else:
        gaps = np.diff(points)
    active = int(np.count_nonzero((gaps >= rates.d_min) & (gaps < rates.d_max)))
    return {"points": int(points.size), "active": active,
            "merges": int(result[1].n_merges)}


def _replica_count(args, kwargs, result):
    n = kwargs["n_replicas"] if "n_replicas" in kwargs else args[3]
    return {"replicas": int(n)}


def _laws_atoms(args, kwargs, result):
    return {"atoms": max(int(mu.n_atoms) for mu in result[0])}


def _measure_atoms(args, kwargs, result):
    return {"atoms": int(result.n_atoms)}


def _lattice_sites(args, kwargs, result):
    spacing = kwargs.get("spacing", args[1] if len(args) > 1 else None)
    j_max = kwargs.get("j_max", args[2] if len(args) > 2 else None)
    return {"sites": int(math.floor(j_max / spacing)) + 1}


# (module, attribute, observer).  The cli names are the ones the cmd_*
# functions resolve in hcplab.cli's globals; transport.deconvolve_m is
# imported inside cmd_analytic, so it is looked up in transport at call time.
TARGETS = (
    ("hcplab.cli", "cmd_simulate", None),
    ("hcplab.cli", "cmd_analytic", None),
    ("hcplab.cli", "cmd_limits", None),
    ("hcplab.cli", "cmd_reproduce_figb", None),
    ("hcplab.cli", "replicate", _replica_count),
    ("hcplab.hcp", "_simulate_points", _epoch_counts),
    ("hcplab.hcp", "sample_spec", None),
    ("hcplab.hcp", "replica_rng", None),
    ("hcplab.cli", "iterate_hcp_measures", _laws_atoms),
    ("hcplab.cli", "u1_on_lattice", _lattice_sites),
    ("hcplab.cli", "c0_estimate", None),
    ("hcplab.cli", "z_cdf", None),
    ("hcplab.cli", "g_infinity", None),
    ("hcplab.cli", "first_point_limit_transform", None),
    ("hcplab.measures", "convolve", _measure_atoms),
    ("hcplab.transport", "convolve", _measure_atoms),
    ("hcplab.transport", "deconvolve_m", None),
)


class Tracer:
    """Holds the spans of one process; install() wraps every target."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.observe_errors: dict[str, str] = {}

    def install(self) -> None:
        for mod_name, attr, observe in TARGETS:
            name = f"{mod_name}.{attr}"
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            setattr(module, attr, self._wrap(name, fn, observe))

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, {"raised": True}, 0.0)
                raise
            t1 = clock()
            stack.pop()
            extra = None
            if observe is not None:
                try:
                    extra = observe(args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the run
                    self.observe_errors.setdefault(name, repr(exc))
            spans[idx] = (name, t0, t1, parent, extra, clock() - t1)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "absent": self.absent,
                       "observe_errors": self.observe_errors}, fh)
