"""Run configuration: strict JSON parsing and validation.

Unknown keys are errors; sweeps are expensive and a silently misspelled
physics parameter is worse than a rejected file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import ConfigError
from .kernels import BathSpec

__all__ = ["SweepRange", "TimeBox", "Tolerances", "RunConfig", "parse_config", "load_config"]

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


@dataclass(frozen=True)
class TimeBox:
    t_max: float
    n: int

    def values(self) -> list[float]:
        # 0 is excluded: the zero-time map has no unique fixed point.
        step = self.t_max / self.n
        return [step * (i + 1) for i in range(self.n)]


@dataclass(frozen=True)
class Tolerances:
    sign_zero: float = 1e-12


@dataclass(frozen=True)
class RunConfig:
    omega_h: float
    T_h: float
    lambda_h: float
    lambda_c: float
    Omega_h: float
    Omega_c: float
    omega_c: Optional[float] = None
    T_c: Optional[float] = None
    t_h: Union[float, SweepRange, None] = None
    t_c: Union[float, SweepRange, None] = None
    h: Optional[float] = None
    dynamics: str = "tcl2"
    workers: int = 1
    omega_ratio: Optional[SweepRange] = None
    T_ratio: Optional[SweepRange] = None
    t_box: Optional[TimeBox] = None
    tolerances: Tolerances = field(default_factory=Tolerances)

    def hot_bath(self) -> BathSpec:
        return BathSpec("hot", self.lambda_h, self.Omega_h, self.T_h)

    def cold_bath(self) -> BathSpec:
        if self.T_c is None:
            raise ConfigError("T_c: required for this run mode")
        return BathSpec("cold", self.lambda_c, self.Omega_c, self.T_c)

    def to_dict(self) -> dict:
        out: dict = {
            "omega_h": self.omega_h,
            "T_h": self.T_h,
            "lambda_h": self.lambda_h,
            "lambda_c": self.lambda_c,
            "Omega_h": self.Omega_h,
            "Omega_c": self.Omega_c,
            "dynamics": self.dynamics,
            "workers": self.workers,
        }
        if self.omega_c is not None:
            out["omega_c"] = self.omega_c
        if self.T_c is not None:
            out["T_c"] = self.T_c
        for name, value in (("t_h", self.t_h), ("t_c", self.t_c)):
            if isinstance(value, SweepRange):
                out[name] = {"min": value.lo, "max": value.hi, "n": value.n}
            elif value is not None:
                out[name] = value
        if self.h is not None:
            out["h"] = self.h
        for name, rng in (("omega_ratio", self.omega_ratio), ("T_ratio", self.T_ratio)):
            if rng is not None:
                out[name] = {"min": rng.lo, "max": rng.hi, "n": rng.n}
        if self.t_box is not None:
            out["t_box"] = {"t_max": self.t_box.t_max, "n": self.t_box.n}
        out["tolerances"] = {"sign_zero": self.tolerances.sign_zero}
        return out


_TOP_KEYS = {
    "omega_h", "omega_c", "T_h", "T_c", "lambda_h", "lambda_c", "Omega_h", "Omega_c",
    "t_h", "t_c", "h", "dynamics", "workers", "omega_ratio", "T_ratio",
    "t_box", "tolerances",
}


def _require_number(data: dict, key: str, positive: bool = True) -> float:
    if key not in data:
        raise ConfigError(f"{key}: missing required value")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite")
    if positive and value <= 0.0:
        raise ConfigError(f"{key}: must be > 0")
    return value


def _optional_number(data: dict, key: str, positive: bool = True) -> Optional[float]:
    return _require_number(data, key, positive) if key in data else None


def _parse_range(value, key: str) -> SweepRange:
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected an object with min/max/n")
    extra = set(value) - {"min", "max", "n"}
    if extra:
        raise ConfigError(f"{key}: unknown key(s) {sorted(extra)}")
    lo = _require_number(value, "min")
    hi = _require_number(value, "max")
    n = value.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"{key}.n: expected an integer >= 1")
    if hi < lo:
        raise ConfigError(f"{key}: max must be >= min")
    if n == 1 and hi != lo:
        raise ConfigError(f"{key}: n=1 requires min == max")
    return SweepRange(lo=lo, hi=hi, n=n)


def _parse_time(data: dict, key: str) -> Union[float, SweepRange, None]:
    if key not in data:
        return None
    value = data[key]
    if isinstance(value, dict):
        return _parse_range(value, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number or a min/max/n object")
    t = float(value)
    if not (math.isfinite(t) and t > 0.0):
        raise ConfigError(f"{key}: must be finite and > 0")
    return t


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")

    omega_h = _require_number(data, "omega_h")
    t_hot = _require_number(data, "T_h")
    omega_c = _optional_number(data, "omega_c")
    t_cold = _optional_number(data, "T_c")
    if omega_c is not None and not omega_h > omega_c:
        raise ConfigError("omega_c: must satisfy omega_h > omega_c > 0")
    if t_cold is not None and not t_hot > t_cold:
        raise ConfigError("T_c: must satisfy T_h > T_c > 0")

    lambda_h = _require_number(data, "lambda_h", positive=False)
    lambda_c = _require_number(data, "lambda_c", positive=False)
    if lambda_h < 0.0 or lambda_c < 0.0:
        raise ConfigError("coupling constants must be >= 0")

    dynamics = data.get("dynamics", "tcl2")
    if dynamics not in DYNAMICS:
        raise ConfigError(f"dynamics: must be one of {DYNAMICS}, got {dynamics!r}")

    workers = data.get("workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigError("workers: expected an integer >= 1")

    tolerances = Tolerances()
    if "tolerances" in data:
        tball = data["tolerances"]
        if not isinstance(tball, dict):
            raise ConfigError("tolerances: expected an object")
        extra = set(tball) - {"sign_zero"}
        if extra:
            raise ConfigError(f"tolerances: unknown key(s) {sorted(extra)}")
        if "sign_zero" in tball:
            tolerances = Tolerances(sign_zero=_require_number(tball, "sign_zero"))

    t_box = None
    if "t_box" in data:
        box = data["t_box"]
        if not isinstance(box, dict):
            raise ConfigError("t_box: expected an object with t_max/n")
        extra = set(box) - {"t_max", "n"}
        if extra:
            raise ConfigError(f"t_box: unknown key(s) {sorted(extra)}")
        n = box.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ConfigError("t_box.n: expected an integer >= 1")
        t_box = TimeBox(t_max=_require_number(box, "t_max"), n=n)

    for key in ("omega_ratio", "T_ratio"):
        if key in data:
            rng = _parse_range(data[key], key)
            if not (0.0 < rng.lo and rng.hi < 1.0):
                raise ConfigError(f"{key}: ratios must lie strictly inside (0, 1)")

    return RunConfig(
        omega_h=omega_h,
        omega_c=omega_c,
        T_h=t_hot,
        T_c=t_cold,
        lambda_h=lambda_h,
        lambda_c=lambda_c,
        Omega_h=_require_number(data, "Omega_h"),
        Omega_c=_require_number(data, "Omega_c"),
        t_h=_parse_time(data, "t_h"),
        t_c=_parse_time(data, "t_c"),
        h=_optional_number(data, "h"),
        dynamics=dynamics,
        workers=workers,
        omega_ratio=_parse_range(data["omega_ratio"], "omega_ratio") if "omega_ratio" in data else None,
        T_ratio=_parse_range(data["T_ratio"], "T_ratio") if "T_ratio" in data else None,
        t_box=t_box,
        tolerances=tolerances,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def require_scalar_times(config: RunConfig) -> tuple[float, float]:
    """Both stroke times as scalars, for single-cycle runs."""
    if not isinstance(config.t_h, float) or not isinstance(config.t_c, float):
        raise ConfigError("t_h and t_c must be scalar for this run mode")
    return config.t_h, config.t_c


def sweep_axes(config: RunConfig) -> tuple[list[float], list[float]]:
    """Stroke-time axes for a sweep; scalars act as single-point axes."""
    def axis(value, name):
        if isinstance(value, SweepRange):
            return value.values()
        if isinstance(value, float):
            return [value]
        raise ConfigError(f"{name}: required for a sweep")
    return axis(config.t_h, "t_h"), axis(config.t_c, "t_c")
