"""Run configuration: strict JSON parsing and validation.

The field list of `RunConfig` is the schema.  Each field declares the parser
of its JSON key (`_key(parser)`), and a field with no default is a required
key.  `parse_config`, its unknown-key check and `RunConfig.to_dict` all read
that one list, so no key can be parsed but not echoed, or echoed but not
parsed.  Nested objects (`SweepRange`, `TimeBox`) go through the same
`_object` check, and every error names the full key path, e.g. `t_h.min` or
`t_box.t_max`.  `RunConfig.stroke(label)` alone reads a stroke's keys and
names a missing cold one, e.g. `omega_c: required for the cold stroke`.

Unknown keys are errors; sweeps are expensive and a silently misspelled
physics parameter is worse than a rejected file.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Optional, Union

from .errors import ConfigError
from .kernels import MAX_GRID_NODES, BathSpec

__all__ = ["SweepRange", "TimeBox", "RunConfig", "parse_config", "load_config"]

DYNAMICS = ("tcl2", "markov")


@dataclass(frozen=True)
class SweepRange:
    lo: float
    hi: float
    n: int

    def values(self) -> list[float]:
        if self.n == 1:
            return [self.lo]
        step = (self.hi - self.lo) / (self.n - 1)
        return [self.lo + i * step for i in range(self.n)]

    def to_dict(self) -> dict:
        return {"min": self.lo, "max": self.hi, "n": self.n}


@dataclass(frozen=True)
class TimeBox:
    t_max: float
    n: int

    def values(self) -> list[float]:
        # 0 is excluded: the zero-time map has no unique fixed point.
        step = self.t_max / self.n
        return [step * (i + 1) for i in range(self.n)]

    def to_dict(self) -> dict:
        return {"t_max": self.t_max, "n": self.n}


# Parsers: `parse(value, path)` turns the JSON value found at `path` into the
# field's value or raises a ConfigError that names `path`.

def _number(value, path: str, positive: bool = True) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{path}: must be finite") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    if positive and value <= 0.0:
        raise ConfigError(f"{path}: must be > 0")
    if value < 0.0:
        raise ConfigError(f"{path}: must be >= 0")
    return value


def _coupling(value, path: str) -> float:
    return _number(value, path, positive=False)


def _count(value, path: str) -> int:
    # Bounded like a grid's node count: a larger count cannot be run anyway.
    if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= MAX_GRID_NODES:
        raise ConfigError(f"{path}: expected an integer in [1, {MAX_GRID_NODES}]")
    return value


def _dynamics(value, path: str) -> str:
    if value not in DYNAMICS:
        raise ConfigError(f"{path}: must be one of {DYNAMICS}, got {value!r}")
    return value


def _object(value, path: str, required: dict, optional: dict) -> dict:
    """Parse a JSON object whose keys map to parsers in `required`/`optional`."""
    where = path or "config root"
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = value.keys() - required.keys() - optional.keys()
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    parsed = {}
    for key, parse in (*required.items(), *optional.items()):
        key_path = f"{path}.{key}" if path else key
        if key in value:
            parsed[key] = parse(value[key], key_path)
        elif key in required:
            raise ConfigError(f"{key_path}: missing required value")
    return parsed


def _range(value, path: str) -> SweepRange:
    keys = _object(value, path, {"min": _number, "max": _number, "n": _count}, {})
    rng = SweepRange(lo=keys["min"], hi=keys["max"], n=keys["n"])
    if rng.hi < rng.lo:
        raise ConfigError(f"{path}: max must be >= min")
    if rng.n == 1 and rng.hi != rng.lo:
        raise ConfigError(f"{path}: n=1 requires min == max")
    return rng


def _time(value, path: str) -> Union[float, SweepRange]:
    return _range(value, path) if isinstance(value, dict) else _number(value, path)


def _ratio(value, path: str) -> SweepRange:
    rng = _range(value, path)
    if not rng.hi < 1.0:  # min > 0 is checked by _number
        raise ConfigError(f"{path}: ratios must lie strictly inside (0, 1)")
    return rng


def _time_box(value, path: str) -> TimeBox:
    return TimeBox(**_object(value, path, {"t_max": _number, "n": _count}, {}))


def _key(parse, default=MISSING):
    """A config key whose JSON value `parse(value, path)` turns into the field."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class RunConfig:
    omega_h: float = _key(_number)
    T_h: float = _key(_number)
    lambda_h: float = _key(_coupling)
    lambda_c: float = _key(_coupling)
    Omega_h: float = _key(_number)
    Omega_c: float = _key(_number)
    omega_c: Optional[float] = _key(_number, None)
    T_c: Optional[float] = _key(_number, None)
    t_h: Union[float, SweepRange, None] = _key(_time, None)
    t_c: Union[float, SweepRange, None] = _key(_time, None)
    h: Optional[float] = _key(_number, None)
    dynamics: str = _key(_dynamics, "tcl2")
    workers: int = _key(_count, 1)
    omega_ratio: Optional[SweepRange] = _key(_ratio, None)
    T_ratio: Optional[SweepRange] = _key(_ratio, None)
    t_box: Optional[TimeBox] = _key(_time_box, None)

    def stroke(self, label: str) -> tuple[BathSpec, float]:
        """(bath, qubit frequency) of the hot or the cold stroke; only that stroke's keys are read."""
        if label == "hot":
            return BathSpec(self.lambda_h, self.Omega_h, self.T_h), self.omega_h
        if label != "cold":
            raise ConfigError(f"bath must be 'hot' or 'cold', got {label!r}")
        for key in ("omega_c", "T_c"):
            if getattr(self, key) is None:
                raise ConfigError(f"{key}: required for the cold stroke")
        return BathSpec(self.lambda_c, self.Omega_c, self.T_c), self.omega_c

    def to_dict(self) -> dict:
        """The config as JSON data, unset keys left out: parse_config inverts it."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value.to_dict() if is_dataclass(value) else value
        return out


_REQUIRED = {f.name: f.metadata["parse"] for f in fields(RunConfig) if f.default is MISSING}
_OPTIONAL = {f.name: f.metadata["parse"] for f in fields(RunConfig) if f.default is not MISSING}


def parse_config(data: dict) -> RunConfig:
    config = RunConfig(**_object(data, "", _REQUIRED, _OPTIONAL))
    if config.omega_c is not None and not config.omega_h > config.omega_c:
        raise ConfigError("omega_c: must satisfy omega_h > omega_c > 0")
    if config.T_c is not None and not config.T_h > config.T_c:
        raise ConfigError("T_c: must satisfy T_h > T_c > 0")
    return config


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, an integer too long to read
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def require_scalar_times(config: RunConfig) -> tuple[float, float]:
    """Both stroke times as scalars, for single-cycle runs."""
    if not isinstance(config.t_h, float) or not isinstance(config.t_c, float):
        raise ConfigError("t_h and t_c must be scalar for this run mode")
    return config.t_h, config.t_c


def _time_axis(config: RunConfig, key: str, run: str) -> list[float]:
    """The stroke times of `key` (t_h or t_c), a scalar as a single-point axis."""
    value = getattr(config, key)
    if isinstance(value, SweepRange):
        return value.values()
    if isinstance(value, float):
        return [value]
    raise ConfigError(f"{key}: required for {run}")


def sweep_axes(config: RunConfig) -> tuple[list[float], list[float]]:
    """Stroke-time axes for a sweep."""
    return _time_axis(config, "t_h", "a sweep"), _time_axis(config, "t_c", "a sweep")
