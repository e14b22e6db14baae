"""JSON config schema: every field is read through ``field`` (or its list and
preset forms ``numbers`` and ``choice``), so a missing, mistyped or
out-of-range value is a ConfigError whose message names it (the CLI prints
it and exits with code 2); each build_* turns one config section into
program objects."""

from __future__ import annotations

import math
import sys

from .hcp import WindowPolicy
from .laws import (DiracLaw, ExpGeometricLaw, GeometricLaw, SamplingContractError,
                   two_point_law)
from .sampling import (ContainsOrigin, ExchangeableMixture, LatticeStationary,
                       LeftBounded, PeriodicRenewal, Stationary)
from .schedule import (ArithmeticThresholds, EpochSchedule, ExplicitThresholds,
                       GeometricThresholds, ScheduleError)
from .transport import default_c0_grid


class ConfigError(ValueError):
    """Configuration failed schema validation; the message names the field."""


class _Missing:
    def __repr__(self):
        return "nothing"


REQUIRED = _Missing()  # the default of a field that must be present
NUMBER = (int, float)


def _check(name: str, value, kind, ok, need: str):
    # bool is an int subclass: true/false pass only where bool is asked for
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool \
            or ok is not None and not ok(value):
        raise ConfigError(f"config field '{name}': need {need}, got {value!r}")
    return value


def field(cfg: dict, path: str, kind=NUMBER, ok=None, need: str = "a number",
          default=REQUIRED, at: str | None = None):
    """The value at the dotted ``path`` of ``cfg`` as written, or ``default``
    when the field is absent.  A missing required field, a value that is not
    a ``kind`` or one that fails ``ok`` is a ConfigError naming the field (as
    ``at.path`` when ``cfg`` is the node at ``at`` of the whole config)."""
    value = cfg
    for step in path.split("."):
        value = value.get(step, REQUIRED) if isinstance(value, dict) else REQUIRED
    if value is REQUIRED and default is not REQUIRED:
        return default
    return _check(f"{at}.{path}" if at else path, value, kind, ok, need)


def numbers(cfg: dict, path: str, ok=None, need: str = "a number", default=REQUIRED):
    """The list of numbers at ``path`` as written; a bad entry is named
    ``path[i]``."""
    values = field(cfg, path, list, None, "a list", default)
    for i, value in enumerate(values):
        _check(f"{path}[{i}]", value, NUMBER, ok, need)
    return values


def choice(cfg: dict, path: str, names, default=REQUIRED, at: str | None = None) -> str:
    """One of the preset ``names`` at ``path``."""
    return field(cfg, path, str, names.__contains__, f"one of {', '.join(names)}",
                 default, at)


def positive(v) -> bool:
    return 0 < v < math.inf  # NaN fails


# kind: (constructor, its arguments as (name, ok, need, default))
_LAWS = {
    "dirac": (DiracLaw, [("value", positive, "a positive number", 1.0)]),
    "geometric": (GeometricLaw, [("q", lambda v: 0 < v <= 1, "a number in (0, 1]", REQUIRED)]),
    "exp_geometric": (ExpGeometricLaw, [("p", lambda v: 0 < v < 1, "a number in (0, 1)",
                                         REQUIRED)]),
    "two_point": (two_point_law, [("a", positive, "a positive number", REQUIRED),
                                  ("b", positive, "a positive number", REQUIRED),
                                  ("p_a", lambda v: 0 <= v <= 1, "a number in [0, 1]", 0.5)]),
}


def build_law(node: dict, path: str):
    """The law described by ``node``, the law object at ``path``."""
    make, params = _LAWS[choice(node, "kind", _LAWS, at=path)]
    return make(*(float(field(node, name, NUMBER, ok, need, default, at=path))
                  for name, ok, need, default in params))


def _mixture_pair(comp) -> bool:
    return isinstance(comp, list) and len(comp) == 2 and isinstance(comp[1], dict) \
        and not isinstance(comp[0], bool) and isinstance(comp[0], NUMBER) \
        and 0 <= comp[0] <= 1


# The presets' coefficients (left, right): east incorporates the left
# neighbour only, west the right one only, paste_all both, at rate one;
# 'constant' and 'linear' take schedule.left and schedule.right.
RATE_PRESETS = {"east": (0.0, 1.0), "west": (1.0, 0.0), "paste_all": (1.0, 1.0),
                "constant": None, "linear": None}


_VARIANTS = {"periodic": PeriodicRenewal, "left_bounded": LeftBounded,
             "contains_origin": ContainsOrigin, "stationary": Stationary,
             "lattice_stationary": LatticeStationary, "exchangeable": ExchangeableMixture}


def build_spec(cfg: dict):
    law = build_law(field(cfg, "initial_law", dict, need="a law object"), "initial_law")
    variant = choice(cfg, "process.variant", _VARIANTS, "periodic")
    if variant == "left_bounded":
        return LeftBounded(law, float(field(cfg, "process.first_point", NUMBER, math.isfinite,
                                            "a finite number", 0.0)))
    if variant != "exchangeable":
        try:
            return _VARIANTS[variant](law)
        except SamplingContractError as exc:  # a stationary variant of an infinite-mean law
            raise ConfigError(f"config field 'initial_law': {exc} under process.variant "
                              f"{variant!r}") from None
    comps = field(cfg, "process.components", list, need="a list of [weight, law] pairs")
    for i, comp in enumerate(comps):
        _check(f"process.components[{i}]", comp, list, _mixture_pair,
               "a [weight, law] pair, weight in [0, 1]")
    field(cfg, "process.components", list,
          lambda c: c and abs(sum(w for w, _ in c) - 1) <= 1e-9, "weights that sum to 1")
    return ExchangeableMixture(tuple(
        (float(w), build_law(ln, f"process.components[{i}]"))
        for i, (w, ln) in enumerate(comps)))


def build_schedule(cfg: dict) -> EpochSchedule:
    kind = choice(cfg, "schedule.thresholds", ("geometric", "arithmetic", "explicit"),
                  "geometric")
    if kind == "geometric":
        thresholds = GeometricThresholds(float(field(
            cfg, "schedule.a", NUMBER, lambda a: 1 < a <= 2, "a ratio in (1, 2]", 2.0)))
    elif kind == "arithmetic":
        thresholds = ArithmeticThresholds()
    else:
        values = numbers(cfg, "schedule.values", positive, "a positive number")
        field(cfg, "schedule.values", list, lambda v: all(a < b for a, b in zip(v, v[1:])),
              "thresholds that increase")
        thresholds = ExplicitThresholds(tuple(float(v) for v in values))
    preset = choice(cfg, "schedule.rates", RATE_PRESETS, "east")
    left = float(field(cfg, "schedule.left", NUMBER, lambda v: 0 <= v < math.inf,
                       "a finite number >= 0", 0.0))
    right = float(field(cfg, "schedule.right", NUMBER,
                        lambda v: 0 <= v < math.inf and left + v > 0,
                        "a finite number >= 0, above 0 when schedule.left is 0", 1.0))
    left, right = RATE_PRESETS[preset] or (left, right)
    schedule = EpochSchedule(thresholds, left, right, linear=preset == "linear")
    gamma = schedule.gamma  # derived; a gamma written in the config must agree with it
    field(cfg, "schedule.gamma", NUMBER,
          lambda g: gamma is not None and math.isclose(g, gamma, rel_tol=1e-9, abs_tol=1e-12),
          f"left / right = {gamma!r}" if gamma is not None else "no value, as right is 0",
          None)
    return schedule


def _finite_threshold(schedule: EpochSchedule, n: int) -> bool:
    try:
        return math.isfinite(schedule.d(n))
    except OverflowError:  # a^(n - 1) past the float range
        return False


def epoch_count(cfg: dict, schedule: EpochSchedule, default: int) -> int:
    """The 'epochs' field: at least 1, epochs + 1 explicit thresholds that keep
    (A2), and d(epochs + 1) a finite float."""
    n = field(cfg, "epochs", int, lambda n: n >= 1, "at least 1", default)
    if isinstance(schedule.thresholds, ExplicitThresholds):
        field(cfg, "schedule.values", list, lambda v: len(v) > n,
              f"{n + 1} thresholds for {n} epochs")
        try:
            schedule.validate(n)
        except ScheduleError as exc:
            raise ConfigError(f"config field 'schedule.values': {exc}") from None
    field(cfg, "epochs", int, lambda n: _finite_threshold(schedule, n + 1),
          "a count whose d(epochs + 1) is a finite float (or a lower schedule.a)", default)
    return n


def build_window(cfg: dict) -> WindowPolicy:
    n = field(cfg, "window.n_intervals", int, lambda v: v >= 1, "at least 1", None)
    target = field(cfg, "window.target_core", int, lambda v: v >= 1, "at least 1", None)
    buffer_factor = float(field(cfg, "window.buffer_factor", NUMBER,
                                lambda v: 0 <= v < math.inf, "a number >= 0", 16.0))
    if n is None and target is None:
        n = 100_000
    return WindowPolicy(n_intervals=n, target_core=target, buffer_factor=buffer_factor)


def build_analytic(cfg: dict, schedule: EpochSchedule, n_epochs: int):
    """The 'analytic' section and the initial law: (l_max, deficit_bound,
    probe_x, j_max, mu1, the law's c0 view, the c0 grid).  l_max must reach
    d(epochs), the last threshold the epoch iteration pushes a law across,
    and j_max stay within l_max / d(1), the truncation of the rescaled
    epoch-1 law that the transport deconvolves; that transport needs d(1) >=
    1.  The grid keeps s_max / s_min and s_max times each view atom finite."""
    if isinstance(schedule.thresholds, ExplicitThresholds):
        field(cfg, "schedule.values", list, lambda v: v[0] >= 1, "a first threshold d(1) >= 1")
    d_last = schedule.d(n_epochs)
    need = f"a number from d({n_epochs}) = {d_last!r} up"
    default = 50.0 * schedule.d(n_epochs + 1)
    if default == math.inf:
        default = REQUIRED
        need += " (the default, 50 * d(epochs + 1), is past the float range: set it or lower epochs)"
    l_max = float(field(cfg, "analytic.l_max", NUMBER, lambda v: d_last <= v < math.inf,
                        need, default))
    deficit_bound = float(field(cfg, "analytic.deficit_bound", NUMBER,
                                lambda v: 0 <= v < math.inf, "a number >= 0", 1e-6))
    probe_x = numbers(cfg, "analytic.probe_x", math.isfinite, "a finite number",
                      [0.5, 1.0, 2.0, 5.0, 10.0])
    j_cap = l_max / schedule.d(1)
    j_max = float(field(cfg, "analytic.j_max", NUMBER, lambda v: 1 < v <= j_cap,
                        f"a number above 1 and at most analytic.l_max / d(1) = {j_cap!r}",
                        min(l_max, 256.0, j_cap)))
    s_min = float(field(cfg, "analytic.c0_s_min", NUMBER,
                        lambda v: sys.float_info.min <= v < math.inf,
                        f"a number from the smallest normal float {sys.float_info.min!r} up",
                        1e-9))
    law = build_law(field(cfg, "initial_law", dict, need="a law object"), "initial_law")
    if isinstance(law, ExpGeometricLaw):
        mu1 = law.atomic(n_atoms=max(1, int(math.floor(math.log(l_max)))), l_max=l_max)
        # the c0 estimator's tail ratio at small s reflects the true law only
        # if the truncation deficit is far below 1 - g(s_min), so it gets a
        # much deeper truncation than the epoch iteration needs
        n_atoms = max(60, int(-3 * math.log(s_min)))
        if n_atoms > math.log(sys.float_info.max):  # its last atom e^n_atoms is inf
            raise ConfigError("config field 'analytic.c0_s_min': need a number above 1.6e-103, "
                              f"as the c0 view holds e^k to k = 3 ln(1/c0_s_min), got {s_min!r}")
        c0_view = law.atomic(n_atoms=n_atoms, l_max=math.inf)
    else:
        mu1 = law.atomic(l_max)
        c0_view = mu1.normalized()
    top = float(c0_view.positions[-1])
    s_max = float(field(cfg, "analytic.c0_s_max", NUMBER,
                        lambda v: s_min < v and v / s_min < math.inf and v * top < math.inf,
                        f"a number above analytic.c0_s_min = {s_min!r} whose ratio to it and "
                        f"product with the c0 view's last atom {top!r} are finite", 1e-2))
    return l_max, deficit_bound, probe_x, j_max, mu1, c0_view, default_c0_grid(s_max, s_min)
