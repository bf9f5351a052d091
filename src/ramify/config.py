"""Run configuration: JSON schema, validation, and named presets.

A run config is a JSON object whose sections mirror the library's
dataclasses: each section's keys, types, defaults and range checks are
those of its dataclass, which is the one place they are written. Every
key is optional and defaults are filled in, but unknown keys anywhere
are rejected so typos fail loudly instead of silently running with
defaults. Presets are plain config dictionaries
merged underneath the user's file (the file wins key by key).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

from .kernels import KernelSpec, _check_eps, _check_quad_points
from .objective import ObjectiveConfig
from .optimizer import DescentConfig

EXPERIMENTS = ("irrigate", "treeopt", "gamma-table", "counterexample", "gradcheck")
FUNCTIONALS = ("avg", "max")


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass(frozen=True)
class MeasureSpec:
    """Half-circle target measure parameters."""

    n: int = 25
    radius: float = 1.0
    total_mass: float = 1.0
    segments_per_path: int = 16

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.radius <= 0.0 or self.total_mass <= 0.0:
            raise ValueError("radius and total_mass must be positive")
        if self.segments_per_path < 1:
            raise ValueError("segments_per_path must be at least 1")


@dataclass(frozen=True)
class FanSpec:
    """Initial branch-fan parameters."""

    n: int = 11
    spread_angle: float = math.pi / 2
    length0: float = 1.0
    segments: int = 10

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 < self.spread_angle < math.pi:
            raise ValueError("spread_angle must lie in (0, pi)")
        if self.length0 <= 0.0:
            raise ValueError("length0 must be positive")
        if self.segments < 1:
            raise ValueError("segments must be at least 1")


@dataclass(frozen=True)
class GammaSpec:
    """Smoothing grid and bound tolerance for the convergence table."""

    eps_values: tuple = (0.2, 0.1, 0.05, 0.02)
    bound_tol: float = 1e-3
    gap_target: float = 0.02

    def __post_init__(self):
        _check_eps(*self.eps_values, what="eps_values")
        if self.bound_tol < 0.0 or self.gap_target <= 0.0:
            raise ValueError("bound_tol must be nonnegative and gap_target positive")


@dataclass(frozen=True)
class CounterexampleSpec:
    """Two-path fixture: masses, normalized lengths, and the lengthening."""

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 4.0
    l2: float = 0.1
    delta: float = 0.1
    alpha: float = 0.5

    def __post_init__(self):
        if self.m1 <= 0.0 or self.m2 <= 0.0:
            raise ValueError("masses must be positive")
        if not 0.0 < self.l2 < self.l2 + self.delta < 1.0 < self.l1:
            raise ValueError("lengths must satisfy 0 < l2 < l2+delta < 1 < l1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class GradcheckSpec:
    """Seeded random-plan gradient comparison parameters."""

    plans: int = 50
    seed: int = 0
    max_branches: int = 4
    max_segments: int = 6
    tolerance: float = 1e-5
    step: float = 1e-6

    def __post_init__(self):
        if self.plans < 1:
            raise ValueError("plans must be at least 1")
        if self.max_branches < 1 or self.max_segments < 2:
            raise ValueError("sizes must allow at least 1 branch of 2 segments")
        if self.tolerance <= 0.0 or self.step <= 0.0:
            raise ValueError("tolerance and step must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration for one CLI run."""

    experiment: Optional[str] = None
    functional: str = "avg"
    kernel: KernelSpec = field(default_factory=KernelSpec)
    quad_points: int = 32
    merge_tol: Optional[float] = None
    out_dir: Optional[str] = None
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    descent: DescentConfig = field(default_factory=DescentConfig)
    measure: MeasureSpec = field(default_factory=MeasureSpec)
    fan: FanSpec = field(default_factory=FanSpec)
    gamma: GammaSpec = field(default_factory=GammaSpec)
    counterexample: CounterexampleSpec = field(default_factory=CounterexampleSpec)
    gradcheck: GradcheckSpec = field(default_factory=GradcheckSpec)

    def __post_init__(self):
        if self.experiment is not None and self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.functional not in FUNCTIONALS:
            raise ValueError(f"functional must be one of {FUNCTIONALS}, "
                             f"got {self.functional!r}")
        _check_quad_points(self.quad_points)
        if self.merge_tol is not None and self.merge_tol < 0.0:
            raise ValueError("merge_tol must be nonnegative")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError("out_dir must be a string path")


def _typed(value, default, where: str):
    """Check one JSON value against the type of its field's default.

    bool -> true/false, int -> integer, float -> finite number, None ->
    number or null, tuple -> nonempty list of numbers; anything else
    (strings) passes through for the dataclass to check.
    """
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false, got {value!r}")
    elif isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
    elif isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{where} must be a nonempty list of numbers")
        return tuple(_typed(item, 0.0, f"{where} entries") for item in value)
    elif isinstance(default, float) or (default is None and value is not None):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be finite")
    return value


def _defaults(cls) -> dict:
    instance = cls()
    return {f.name: getattr(instance, f.name) for f in fields(cls)}


def _read(data, where: str, defaults: dict) -> dict:
    """Type-check the JSON object ``data`` against ``defaults``.

    ``defaults`` maps each allowed key to a value of its type. Only the
    keys present are returned, so absent ones keep the dataclass default.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(data) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}; "
                          f"allowed: {', '.join(defaults)}")
    return {key: _typed(value, defaults[key], f"{where}.{key}") for key, value in data.items()}


def _build(cls, where: str, values: dict):
    """``cls(**values)``, reporting the class's own checks as a ConfigError."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# The keys of the nested object objective.penalty -> their ObjectiveConfig fields.
_PENALTY_FIELDS = {"kernel": "penalty_kernel", "beta": "beta", "gamma": "gamma"}


def _objective(data) -> ObjectiveConfig:
    """ObjectiveConfig's penalty fields sit in the nested object objective.penalty."""
    keys = _defaults(ObjectiveConfig)
    penalty_keys = {key: keys.pop(field) for key, field in _PENALTY_FIELDS.items()}
    values = _read(data, "objective", {**keys, "penalty": {}})
    penalty = _read(values.pop("penalty", {}), "objective.penalty", penalty_keys)
    values.update((_PENALTY_FIELDS[key], value) for key, value in penalty.items())
    return _build(ObjectiveConfig, "objective", values)


def validate_config(data: dict) -> RunConfig:
    """Validate a raw config dictionary into a :class:`RunConfig`.

    Keys, types and defaults are the fields of RunConfig and of each
    section's dataclass. The special cases: ``experiment`` and
    ``out_dir`` are strings that RunConfig checks, ``kernel`` is the kind
    string of a KernelSpec, and ``objective`` nests its penalty fields.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    top = _defaults(RunConfig)
    top.update(experiment="", out_dir="", kernel=top["kernel"].kind, objective={})
    values = _read(data, "config", top)
    for name, value in values.items():
        if is_dataclass(top[name]):
            cls = type(top[name])
            values[name] = _build(cls, name, _read(value, name, _defaults(cls)))
    if "kernel" in values:
        values["kernel"] = _build(KernelSpec, "config.kernel", {"kind": values["kernel"]})
    if "objective" in values:
        values["objective"] = _objective(values["objective"])
    return _build(RunConfig, "config", values)


def merge_config(base: dict, override: dict) -> dict:
    """Recursive dict merge; scalar and list values in ``override`` win."""
    merged = dict(base)
    for key, value in override.items():
        if key in merged and isinstance(merged[key], dict) and isinstance(value, dict):
            merged[key] = merge_config(merged[key], value)
        else:
            merged[key] = value
    return merged


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


PRESETS = {
    "fig2": {
        "experiment": "irrigate",
        "functional": "avg",
        "kernel": "bump",
        "merge_tol": 0.05,
        "measure": {"n": 25, "radius": 1.0, "total_mass": 1.0, "segments_per_path": 16},
        "objective": {"alpha": 0.4},
        "descent": {"eps_schedule": [0.25, 0.1, 0.05]},
    },
    "fig3": {
        "experiment": "irrigate",
        "functional": "avg",
        "kernel": "bump",
        "merge_tol": 0.05,
        "measure": {"n": 29, "radius": 1.0, "total_mass": 1.0, "segments_per_path": 16},
        "objective": {"alpha": 0.9},
        "descent": {"eps_schedule": [0.1, 0.05, 0.01]},
    },
    "fig3-text": {
        "experiment": "irrigate",
        "functional": "avg",
        "kernel": "bump",
        "merge_tol": 0.05,
        "measure": {"n": 29, "radius": 1.0, "total_mass": 1.0, "segments_per_path": 16},
        "objective": {"alpha": 0.9},
        "descent": {"eps_schedule": [0.05, 0.025, 0.01]},
    },
    "fig4": {
        "experiment": "treeopt",
        "fan": {"n": 11, "spread_angle": math.pi / 2, "length0": 1.0, "segments": 10},
        "objective": {"alpha": 0.4, "c1": 0.4, "c2": 1.4},
        "descent": {"eps_schedule": [0.5, 0.1, 0.03], "m_init": 0.1},
    },
    "fig5": {
        "experiment": "treeopt",
        "fan": {"n": 15, "spread_angle": math.pi / 2, "length0": 1.0, "segments": 10},
        "objective": {"alpha": 0.5, "c1": 0.5, "c2": 1.5},
        "descent": {"eps_schedule": [0.8, 0.1, 0.01], "m_init": 0.1},
    },
}


def resolve_config(file_data: Optional[dict], preset: Optional[str]) -> dict:
    """Layer a preset under the user's config file content."""
    merged: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; "
                              f"available: {', '.join(sorted(PRESETS))}")
        merged = merge_config(merged, PRESETS[preset])
    if file_data is not None:
        merged = merge_config(merged, file_data)
    return merged
