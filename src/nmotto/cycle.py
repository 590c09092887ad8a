"""Per-cycle observables: works, indices, classification, boundary times.

Sign convention: positive work flows from the working substance to the
outside; positive Delta E_S flows into the qubit.  The operating mode is a
minimal sign predicate; regimes the prose does not name land in Other, and
any sign within 1e-12 of zero is treated as indefinite rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache
from typing import Callable, Optional, get_type_hints

from .limit_cycle import LimitCycleState

__all__ = [
    "Mode",
    "Flow",
    "CycleReport",
    "StrokeEnergetics",
    "REPORT_FIELDS",
    "LABEL_FIELDS",
    "works",
    "classify_mode",
    "classify_flow",
    "nonmarkov_index",
    "performance",
    "assemble_report",
    "find_boundaries",
    "bisect_sign_change",
    "SIGN_EPS",
]

SIGN_EPS = 1e-12


class Mode(str, Enum):
    ENGINE = "Engine"
    HEATER = "Heater"
    HEAT_PUMP = "HeatPump"
    OTHER = "Other"


class Flow(str, Enum):
    ENERGY_DIVISION = "EnergyDivision"
    REVERSE = "ReverseEnergyFlow"
    NORMAL = "NormalEnergyFlow"
    UNDEFINED = "Undefined"


@dataclass(frozen=True, slots=True)
class StrokeEnergetics:
    """Energy bookkeeping of one isochoric stroke; sums to zero exactly."""

    dE_S: float
    dE_B: float
    dE_I: float


@dataclass(frozen=True, slots=True)
class CycleReport:
    """All per-cycle observables at one (t_h, t_c) parameter point."""

    t_h: float
    t_c: float
    dE_S_h: float
    dE_B_h: float
    dE_I_h: float
    dE_S_c: float
    dE_B_c: float
    dE_I_c: float
    W_adiab_h: float
    W_adiab_c: float
    W_detach_h: float
    W_detach_c: float
    W_total: float
    alpha_h: Optional[float]
    alpha_c: Optional[float]
    eta: Optional[float]
    cop: Optional[float]
    mode: Mode
    flow_h: Flow
    flow_c: Flow

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in REPORT_FIELDS}
        for name in LABEL_FIELDS:
            out[name] = out[name].value
        return out


# The report schema: field order of the CSV columns and the JSON keys.
# Label fields hold an Enum and are written as its value.
REPORT_FIELDS = tuple(field.name for field in fields(CycleReport))
LABEL_FIELDS = tuple(
    name for name, hint in get_type_hints(CycleReport).items()
    if isinstance(hint, type) and issubclass(hint, Enum)
)


def works(lc: LimitCycleState, omega_h: float, omega_c: float,
          dE_I_h: float, dE_I_c: float) -> tuple[float, float, float, float, float]:
    """(W_adiab_h, W_adiab_c, W_detach_h, W_detach_c, W_total).

    Adiabatic works move (omega_h - omega_c) per excitation; detachment work
    equals the interaction-energy change of the preceding stroke.
    """
    w_adiab_h = (omega_h - omega_c) * lc.rho11_h
    w_adiab_c = (omega_c - omega_h) * lc.rho11_c
    w_detach_h = dE_I_h
    w_detach_c = dE_I_c
    total = w_adiab_h + w_adiab_c + w_detach_h + w_detach_c
    return w_adiab_h, w_adiab_c, w_detach_h, w_detach_c, total


def classify_mode(w_total: float, dE_S_h: float, dE_S_c: float, eps: float = SIGN_EPS) -> Mode:
    """Engine / Heater / HeatPump by the signs of total work and qubit heats."""
    if w_total > eps:
        return Mode.ENGINE
    if w_total < -eps and dE_S_c > eps:
        return Mode.HEAT_PUMP
    if w_total < -eps and dE_S_h > eps and dE_S_c < -eps:
        return Mode.HEATER
    return Mode.OTHER


def classify_flow(dE_S: float, dE_B: float, label: str, eps: float = SIGN_EPS) -> Flow:
    """Energy-flow pattern of one stroke from the signs of (dE_S, dE_B).

    The (-,-) cell is unnamed for either bath and maps to Undefined, as do
    sign-degenerate inputs.
    """
    if label not in ("hot", "cold"):
        raise ValueError(f"label must be 'hot' or 'cold', got {label!r}")
    if abs(dE_S) <= eps or abs(dE_B) <= eps:
        return Flow.UNDEFINED
    s_pos = dE_S > 0.0
    b_pos = dE_B > 0.0
    if s_pos and b_pos:
        return Flow.ENERGY_DIVISION
    if label == "hot":
        if s_pos and not b_pos:
            return Flow.NORMAL
        if not s_pos and b_pos:
            return Flow.REVERSE
    else:
        if not s_pos and b_pos:
            return Flow.NORMAL
        if s_pos and not b_pos:
            return Flow.REVERSE
    return Flow.UNDEFINED


def nonmarkov_index(dE_I_c: float, dE_B_c: float, dE_I_h: float, dE_S_c: float,
                    eps: float = SIGN_EPS) -> tuple[Optional[float], Optional[float]]:
    """(alpha_c, alpha_h) = (|dE_I_c/dE_B_c|, |dE_I_h/dE_S_c|); None on zero denominator."""
    alpha_c = abs(dE_I_c / dE_B_c) if abs(dE_B_c) > eps else None
    alpha_h = abs(dE_I_h / dE_S_c) if abs(dE_S_c) > eps else None
    return alpha_c, alpha_h


def performance(w_total: float, dE_S_h: float, dE_S_c: float, mode: Mode,
                eps: float = SIGN_EPS) -> tuple[Optional[float], Optional[float]]:
    """(eta, cop) from the total work and the qubit heats; None where undefined."""
    eta = w_total / dE_S_h if (mode is Mode.ENGINE and dE_S_h > eps) else None
    cop = abs(dE_S_c) / abs(w_total) if abs(w_total) > eps else None
    return eta, cop


def assemble_report(t_h: float, t_c: float, lc: LimitCycleState,
                    omega_h: float, omega_c: float,
                    hot: StrokeEnergetics, cold: StrokeEnergetics,
                    eps: float = SIGN_EPS) -> CycleReport:
    """Build the full report from the two strokes' energy balances."""
    w_ad_h, w_ad_c, w_de_h, w_de_c, total = works(lc, omega_h, omega_c, hot.dE_I, cold.dE_I)
    mode = classify_mode(total, hot.dE_S, cold.dE_S, eps)
    alpha_c, alpha_h = nonmarkov_index(cold.dE_I, cold.dE_B, hot.dE_I, cold.dE_S, eps)
    eta, cop = performance(total, hot.dE_S, cold.dE_S, mode, eps)
    # Positional, in REPORT_FIELDS order.
    return CycleReport(
        t_h, t_c, hot.dE_S, hot.dE_B, hot.dE_I, cold.dE_S, cold.dE_B, cold.dE_I,
        w_ad_h, w_ad_c, w_de_h, w_de_c, total, alpha_h, alpha_c, eta, cop, mode,
        classify_flow(hot.dE_S, hot.dE_B, "hot", eps),
        classify_flow(cold.dE_S, cold.dE_B, "cold", eps),
    )


def bisect_sign_change(f: Callable[[float], float], lo: float, hi: float,
                       rtol: float = 1e-6, max_iter: int = 200) -> float:
    """Root of f by bisection on a bracketing interval, to relative width rtol."""
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError("interval does not bracket a sign change")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rtol * max(abs(mid), 1e-30):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_boundaries(evaluate: Callable[[float], CycleReport], t_c_min: float,
                    t_c_max: float, step: float, rtol: float = 1e-6,
                    ) -> tuple[Optional[float], Optional[float]]:
    """(t0_c, t1_c): sign changes of the qubit heats and of the total work.

    Walks the scan points t_c_min, t_c_min + step, ... (and t_c_max when the
    steps miss it) in order, and stops at each observable's first scan point
    that is an exact zero (returned as is) or that ends a sign change
    (refined by bisection).  Missing crossings are reported as None, not
    raised.

    `evaluate` is called lazily, at most once per stroke time, through a
    memo shared by both scans and their bisections: a stroke time the answer
    never reads is never evaluated, so an evaluation that would raise beyond
    both first brackets does not fail the search.
    """
    if not (all(map(math.isfinite, (t_c_min, t_c_max, step)))
            and 0.0 < t_c_min < t_c_max and step > 0.0):
        raise ValueError("scan range must satisfy 0 < t_c_min < t_c_max with finite step > 0")
    span = (t_c_max - t_c_min) / step
    if not math.isfinite(span):
        raise ValueError("scan range over step must be finite")
    n = math.floor(span) + 1

    def scan_points():
        yield from (t_c_min + i * step for i in range(n))
        if t_c_min + (n - 1) * step < t_c_max:
            yield t_c_max

    report = cache(evaluate)

    def refine(value_of: Callable[[CycleReport], float]) -> Optional[float]:
        prev_t = prev_v = None
        for t in scan_points():
            v = value_of(report(t))
            if v == 0.0:
                return t
            if prev_v is not None and (v > 0.0) != (prev_v > 0.0):
                return bisect_sign_change(lambda x: value_of(report(x)), prev_t, t, rtol)
            prev_t, prev_v = t, v
        return None

    return refine(lambda r: r.dE_S_h), refine(lambda r: r.W_total)
