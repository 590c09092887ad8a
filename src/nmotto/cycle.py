"""Per-cycle observables: the cycle report, its classification, boundary times.

Sign convention: positive work flows from the working substance to the
outside; positive Delta E_S flows into the qubit.  The operating mode is a
minimal sign predicate; regimes the prose does not name land in Other, and
any sign within SIGN_EPS = 1e-12 of zero is treated as indefinite rather
than guessed.

A boundary search evaluates one scalar cell per step, so the cell's path
is kept short: the labels are module constants bound once from their Enum
classes (a member read from its class costs an Enum descriptor call), each
bath's flow rule is one table, and the report is built with
`limit_cycle._new` (`tuple.__new__`), without the NamedTuple's generated
`__new__`.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from typing import Callable, NamedTuple, Optional, get_type_hints

from .limit_cycle import LimitCycleState, _new

__all__ = [
    "Mode",
    "Flow",
    "CycleReport",
    "StrokeEnergetics",
    "REPORT_FIELDS",
    "LABEL_FIELDS",
    "classify_mode",
    "classify_flow",
    "assemble_report",
    "find_boundaries",
    "bisect_sign_change",
    "SIGN_EPS",
]

SIGN_EPS = 1e-12

# Halvings per bisection: with rtol = 0 a bracket of adjacent floats never narrows.
_BISECTIONS = 200


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


# Each label as a module constant: the rules below read these, not the classes.
_ENGINE, _HEATER, _HEAT_PUMP, _OTHER = Mode.ENGINE, Mode.HEATER, Mode.HEAT_PUMP, Mode.OTHER
_ENERGY_DIVISION, _REVERSE, _NORMAL, _UNDEFINED = (
    Flow.ENERGY_DIVISION, Flow.REVERSE, Flow.NORMAL, Flow.UNDEFINED)


class StrokeEnergetics(NamedTuple):
    """Energy bookkeeping of one isochoric stroke; sums to zero exactly."""

    dE_S: float
    dE_B: float
    dE_I: float


class CycleReport(NamedTuple):
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


# The report schema: the CSV column order, and the JSON keys (written sorted).
# Label fields hold an Enum and are written as its value.
REPORT_FIELDS = CycleReport._fields
LABEL_FIELDS = tuple(
    name for name, hint in get_type_hints(CycleReport).items()
    if isinstance(hint, type) and issubclass(hint, Enum)
)


def classify_mode(w_total: float, dE_S_h: float, dE_S_c: float) -> Mode:
    """Engine / Heater / HeatPump by the signs of total work and qubit heats."""
    if w_total > SIGN_EPS:
        return _ENGINE
    if w_total < -SIGN_EPS and dE_S_c > SIGN_EPS:
        return _HEAT_PUMP
    if w_total < -SIGN_EPS and dE_S_h > SIGN_EPS and dE_S_c < -SIGN_EPS:
        return _HEATER
    return _OTHER


# Each bath's flow by the signs of its stroke, indexed [dE_S > 0][dE_B > 0].
_FLOWS = {
    "hot": ((_UNDEFINED, _REVERSE), (_NORMAL, _ENERGY_DIVISION)),
    "cold": ((_UNDEFINED, _NORMAL), (_REVERSE, _ENERGY_DIVISION)),
}


def classify_flow(dE_S: float, dE_B: float, label: str) -> Flow:
    """Energy-flow pattern of one stroke from the signs of (dE_S, dE_B).

    (+,+) is EnergyDivision; a mixed pair is Normal when the qubit gains energy
    on the hot stroke or loses it on the cold one, and Reverse otherwise.  The
    (-,-) cell is unnamed for either bath and maps to Undefined, as do
    sign-degenerate inputs.  Each bath's four sign cells are one table,
    `_FLOWS[label]`; any label that is neither "hot" nor "cold" raises
    ValueError, an unhashable one included.
    """
    try:
        flows = _FLOWS[label]
    except (KeyError, TypeError):  # an unhashable label raises TypeError
        raise ValueError(f"label must be 'hot' or 'cold', got {label!r}") from None
    if abs(dE_S) <= SIGN_EPS or abs(dE_B) <= SIGN_EPS:
        return _UNDEFINED
    return flows[dE_S > 0.0][dE_B > 0.0]


def assemble_report(t_h: float, t_c: float, lc: LimitCycleState,
                    omega_h: float, omega_c: float,
                    hot: StrokeEnergetics, cold: StrokeEnergetics) -> CycleReport:
    """Build the full report from the limit cycle and the two strokes' balances.

    The derived columns, with SIGN_EPS as the zero of each gate:
      W_adiab_h = (omega_h - omega_c) rho11_h, W_adiab_c = (omega_c - omega_h) rho11_c
        (an adiabat moves omega_h - omega_c per excitation);
      W_detach_h = dE_I_h, W_detach_c = dE_I_c (detaching returns the interaction energy);
      W_total = W_adiab_h + W_adiab_c + W_detach_h + W_detach_c;
      alpha_h = |dE_I_h / dE_S_c|, alpha_c = |dE_I_c / dE_B_c| (non-Markovianity
        indices), None when the denominator is zero;
      eta = W_total / dE_S_h for an Engine with dE_S_h > 0, else None;
      cop = |dE_S_c| / |W_total|, None when W_total is zero.
    """
    s_h, b_h, i_h = hot
    s_c, b_c, i_c = cold
    w_ad_h = (omega_h - omega_c) * lc.rho11_h
    w_ad_c = (omega_c - omega_h) * lc.rho11_c
    total = w_ad_h + w_ad_c + i_h + i_c
    mode = classify_mode(total, s_h, s_c)
    # In REPORT_FIELDS order.
    return _new(CycleReport, (
        t_h, t_c, s_h, b_h, i_h, s_c, b_c, i_c,
        w_ad_h, w_ad_c, i_h, i_c, total,
        abs(i_h / s_c) if abs(s_c) > SIGN_EPS else None,
        abs(i_c / b_c) if abs(b_c) > SIGN_EPS else None,
        total / s_h if (mode is _ENGINE and s_h > SIGN_EPS) else None,
        abs(s_c) / abs(total) if abs(total) > SIGN_EPS else None,
        mode,
        classify_flow(s_h, b_h, "hot"),
        classify_flow(s_c, b_c, "cold"),
    ))


def bisect_sign_change(f: Callable[[float], float], lo: float, hi: float,
                       rtol: float = 1e-6) -> float:
    """Root of f by bisection on a bracketing interval lo < hi, to relative
    width rtol; any other bracket raises ValueError before f is called."""
    if not lo < hi:
        raise ValueError(f"bisection bracket needs lo < hi, got ({lo!r}, {hi!r})")
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError("interval does not bracket a sign change")
    for _ in range(_BISECTIONS):
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
