"""JSON config schema: each build_* turns one config section into program
objects, and a missing or out-of-range field is a ConfigError whose message
names it (the CLI prints it and exits with code 2)."""

from __future__ import annotations

import math

from .hcp import WindowPolicy
from .laws import (DiracLaw, ExpGeometricLaw, ExponentialLaw, GeometricLaw,
                   two_point_law)
from .sampling import (ContainsOrigin, ExchangeableMixture, LatticeStationary,
                       LeftBounded, PeriodicRenewal, Stationary)
from .schedule import (_RATE_PRESETS, ArithmeticThresholds, EpochSchedule,
                       ExplicitThresholds, GeometricThresholds, PresetRateFactory)


class ConfigError(ValueError):
    """Configuration failed schema validation; the message names the field."""


def require(cfg: dict, path: str, types, default=None, required=False):
    node = cfg
    parts = path.split(".")
    for p in parts[:-1]:
        node = node.get(p, {}) if isinstance(node, dict) else {}
    if not isinstance(node, dict) or parts[-1] not in node:
        if required:
            raise ConfigError(f"config field '{path}' is required")
        return default
    val = node[parts[-1]]
    # bool is an int subclass: true/false pass only where bool is asked for
    if types is not None and (not isinstance(val, types)
                              or isinstance(val, bool) and types is not bool):
        raise ConfigError(f"config field '{path}': expected {types}, got {type(val).__name__}")
    return val


def _number(node: dict, path: str, name: str, ok, need: str, default=None) -> float:
    """node[name] (or the default) as a float; a missing, non-numeric or
    out-of-range value is a ConfigError naming path.name."""
    val = node.get(name, default)
    if val is None:
        raise ConfigError(f"config field '{path}.{name}' is required")
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not ok(val):
        raise ConfigError(f"config field '{path}.{name}': need {need}, got {val!r}")
    return float(val)


def _positive(v) -> bool:
    return 0 < v < math.inf  # NaN fails


def build_law(node: dict, path: str):
    if not isinstance(node, dict):
        raise ConfigError(f"config field '{path}': expected a law object, got {node!r}")
    kind = node.get("kind")
    if kind == "dirac":
        return DiracLaw(_number(node, path, "value", _positive, "a positive number", 1.0))
    if kind == "geometric":
        return GeometricLaw(_number(node, path, "q", lambda v: 0 < v <= 1, "a number in (0, 1]"))
    if kind == "exponential":
        return ExponentialLaw(_number(node, path, "rate", _positive, "a positive number", 1.0))
    if kind == "exp_geometric":
        return ExpGeometricLaw(_number(node, path, "p", lambda v: 0 < v < 1,
                                       "a number in (0, 1)"))
    if kind == "two_point":
        return two_point_law(_number(node, path, "a", _positive, "a positive number"),
                             _number(node, path, "b", _positive, "a positive number"),
                             _number(node, path, "p_a", lambda v: 0 <= v <= 1,
                                     "a number in [0, 1]", 0.5))
    raise ConfigError(f"{path}.kind: unknown law {kind!r}")


def build_spec(cfg: dict):
    law = build_law(require(cfg, "initial_law", dict, required=True), "initial_law")
    variant = require(cfg, "process.variant", str, default="periodic")
    if variant == "periodic":
        return PeriodicRenewal(law)
    if variant == "left_bounded":
        first = require(cfg, "process.first_point", (int, float), default=None)
        return LeftBounded(law, None if first is None else float(first))
    if variant == "contains_origin":
        return ContainsOrigin(law)
    if variant == "stationary":
        return Stationary(law)
    if variant == "lattice_stationary":
        return LatticeStationary(law)
    if variant == "exchangeable":
        comps = require(cfg, "process.components", list, required=True)
        for i, comp in enumerate(comps):
            if not (isinstance(comp, list) and len(comp) == 2 and not isinstance(comp[0], bool)
                    and isinstance(comp[0], (int, float)) and 0 <= comp[0] <= 1):
                raise ConfigError(f"config field 'process.components[{i}]': need a "
                                  f"[weight, law] pair, weight in [0, 1], got {comp!r}")
        if not comps or abs(sum(w for w, _ in comps) - 1.0) > 1e-9:
            raise ConfigError("config field 'process.components': need weights that sum to 1")
        return ExchangeableMixture(tuple(
            (float(w), build_law(ln, f"process.components[{i}]"))
            for i, (w, ln) in enumerate(comps)))
    raise ConfigError(f"process.variant: unknown variant {variant!r}")


def build_schedule(cfg: dict) -> EpochSchedule:
    kind = require(cfg, "schedule.thresholds", str, default="geometric")
    if kind == "geometric":
        a = float(require(cfg, "schedule.a", (int, float), default=2.0))
        if not 1.0 < a <= 2.0:
            raise ConfigError("schedule.a: geometric ratio must lie in (1, 2]")
        thresholds = GeometricThresholds(a)
    elif kind == "arithmetic":
        thresholds = ArithmeticThresholds()
    elif kind == "explicit":
        values = require(cfg, "schedule.values", list, required=True)
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and _positive(v)
                   for v in values) or any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"config field 'schedule.values': need positive thresholds "
                              f"that increase, got {values!r}")
        thresholds = ExplicitThresholds(tuple(float(v) for v in values))
    else:
        raise ConfigError(f"schedule.thresholds: unknown preset {kind!r}")
    rates = require(cfg, "schedule.rates", str, default="east")
    if rates not in _RATE_PRESETS:
        raise ConfigError(f"config field 'schedule.rates': unknown preset {rates!r}; "
                          f"known: {', '.join(_RATE_PRESETS)}")
    left = float(require(cfg, "schedule.left", (int, float), default=0.0))
    right = float(require(cfg, "schedule.right", (int, float), default=1.0))
    factory = PresetRateFactory(rates, left, right)
    gamma_cfg = require(cfg, "schedule.gamma", (int, float), default=None)
    gamma = float(gamma_cfg) if gamma_cfg is not None else factory.gamma
    return EpochSchedule(thresholds, factory, gamma)


def epoch_count(cfg: dict, schedule: EpochSchedule, default: int) -> int:
    """The 'epochs' field: at least 1, and epochs + 1 explicit thresholds."""
    n = require(cfg, "epochs", int, default=default)
    if n < 1:
        raise ConfigError(f"config field 'epochs': need at least 1, got {n}")
    if isinstance(schedule.thresholds, ExplicitThresholds) \
            and len(schedule.thresholds.values) <= n:
        raise ConfigError(f"config field 'schedule.values': {n} epochs need {n + 1} "
                          f"thresholds, got {len(schedule.thresholds.values)}")
    return n


def build_window(cfg: dict) -> WindowPolicy:
    n = require(cfg, "window.n_intervals", int, default=None)
    target = require(cfg, "window.target_core", int, default=None)
    buffer_factor = float(require(cfg, "window.buffer_factor", (int, float), default=16.0))
    if not 0 <= buffer_factor < math.inf:  # NaN fails
        raise ConfigError(f"config field 'window.buffer_factor': need a number >= 0, "
                          f"got {buffer_factor!r}")
    if n is None and target is None:
        n = 100_000
    for name, value in (("window.n_intervals", n), ("window.target_core", target)):
        if value is not None and value < 1:
            raise ConfigError(f"config field '{name}': need at least 1, got {value}")
    return WindowPolicy(n_intervals=n, target_core=target, buffer_factor=buffer_factor)


def build_analytic(cfg: dict, schedule: EpochSchedule, n_epochs: int):
    """The 'analytic' section: (l_max, deficit_bound, probe_x, j_max, c0_s_min,
    c0_s_max).  l_max must reach d(epochs), the last threshold the epoch
    iteration pushes a law across."""
    l_max = float(require(cfg, "analytic.l_max", (int, float),
                          default=50.0 * schedule.d(n_epochs + 1)))
    d_last = schedule.d(n_epochs)
    if not d_last <= l_max < math.inf:
        raise ConfigError(f"config field 'analytic.l_max': need a number from "
                          f"d({n_epochs}) = {d_last!r} up, got {l_max!r}")
    deficit_bound = float(require(cfg, "analytic.deficit_bound", (int, float), default=1e-6))
    probe_x = require(cfg, "analytic.probe_x", list, default=[0.5, 1.0, 2.0, 5.0, 10.0])
    for i, x in enumerate(probe_x):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"config field 'analytic.probe_x[{i}]': need a number, "
                              f"got {x!r}")
    j_max = float(require(cfg, "analytic.j_max", (int, float), default=min(l_max, 256.0)))
    s_min = float(require(cfg, "analytic.c0_s_min", (int, float), default=1e-9))
    if not _positive(s_min):
        raise ConfigError(f"config field 'analytic.c0_s_min': need a positive number, "
                          f"got {s_min!r}")
    s_max = float(require(cfg, "analytic.c0_s_max", (int, float), default=1e-2))
    if not s_min < s_max < math.inf:
        raise ConfigError(f"config field 'analytic.c0_s_max': need a number above "
                          f"analytic.c0_s_min = {s_min!r}, got {s_max!r}")
    return l_max, deficit_bound, probe_x, j_max, s_min, s_max
