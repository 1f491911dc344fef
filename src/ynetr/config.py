"""Run configuration: one JSON document wiring every pipeline stage.

Loading is strict: unknown keys, values that do not fit a field's type
annotation, and non-finite floats are rejected at every level. Every
config object checks its own values when it is built and is frozen
(``dataclasses.replace`` builds and checks a new one), so a constructed
config is and stays a valid one; a loading error names the section it comes from
(``model: encoder depth must be divisible by 4, got 5``). No key is
optional and none takes ``null``; settings that no run varies are module
constants instead of keys (the phantom's intensities, spacing and liver
geometry in ``phantom``, the MLP ratio in ``model``). The canonical
re-serialization spells out every default, so a config echo fully
determines a run.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .inference import InferenceConfig
from .model import ModelConfig
from .phantom import PhantomSpec
from .sampling import SamplerConfig
from .training import TrainConfig


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class IntensityConfig:
    lo: float = -175.0
    hi: float = 250.0

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"intensity window needs lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class PhantomRunConfig:
    count: int = 4
    spec: PhantomSpec = field(default_factory=PhantomSpec)

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("phantom count must be nonnegative")


@dataclass(frozen=True)
class RunConfig:
    intensity: IntensityConfig = field(default_factory=IntensityConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    phantom: PhantomRunConfig = field(default_factory=PhantomRunConfig)

    def __post_init__(self):
        if self.sampler.window != self.model.input_dims:
            raise ConfigError(
                f"sampler window {self.sampler.window} must equal model input dims "
                f"{self.model.input_dims}"
            )


def _type_name(tp):
    return tp.__name__ if isinstance(tp, type) and not get_args(tp) else str(tp)


def _check(tp, value, key):
    """``value`` as the field annotation ``tp`` wants it, or a ConfigError
    naming ``key``. A config field is a nested dataclass (from a JSON
    object), a fixed-length tuple (from a JSON array), a bool, an int, or a
    finite float (ints are accepted); no field is optional."""
    if is_dataclass(tp):
        return build_config(tp, value, key)
    origin, args = get_origin(tp), get_args(tp)
    got = type(value).__name__
    if origin is tuple:
        if isinstance(value, (list, tuple)):
            if len(args) == len(value):
                return tuple(
                    _check(t, v, f"{key}[{i}]") for i, (t, v) in enumerate(zip(args, value))
                )
            got = f"{len(value)} items"
    elif isinstance(value, bool):
        if tp is bool:
            return value
    elif tp is float and isinstance(value, (int, float)):
        try:
            value = float(value)
        except OverflowError:
            got = "int out of float range"
        else:
            if math.isfinite(value):
                return value
            raise ConfigError(f"{key}: expected a finite float, got {value!r}")
    elif isinstance(value, tp):
        return value
    raise ConfigError(f"{key}: expected {_type_name(tp)}, got {got}")


def build_config(cls, data, path):
    """Strictly build dataclass ``cls`` from a JSON object: unknown keys and
    values that do not fit the field annotations raise ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config document'}: expected an object, "
                          f"got {type(data).__name__}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        where = f"{path}: unknown keys" if path else "unknown top-level keys"
        raise ConfigError(f"{where} {sorted(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {
        key: _check(hints[key], value, f"{path}.{key}" if path else key)
        for key, value in data.items()
    }
    try:
        return cls(**kwargs)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    return build_config(RunConfig, data, "")


def run_config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)


def canonical_json(cfg: RunConfig) -> str:
    return json.dumps(run_config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def load_run_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return run_config_from_dict(data)


def write_config_echo(cfg: RunConfig, out_dir):
    path = Path(out_dir) / "config.echo.json"
    path.write_text(canonical_json(cfg))
    return path
