"""Fixed point of the one-cycle population map.

With r_m^mu = rho_{m,00}^mu(t^mu) the stroke-end populations from the two
pure initial states, the probability of entering a stroke in the ground
state obeys an affine one-cycle map whose fixed point is

    P^mu = p^mu / (1 - p0),
    p0   = (r_0^c - r_1^c) * (r_0^h - r_1^h),
    p^h  = r_0^c r_1^h + r_1^c (1 - r_1^h),
    p^c  = r_0^h r_1^c + r_1^h (1 - r_1^c).

The closed form is used everywhere; power iteration exists as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import StrokeSource, transition_populations
from .errors import SingularMapError

__all__ = ["LimitCycleState", "fixed_point", "fixed_point_from_populations", "iterate_map"]

_SINGULAR_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class LimitCycleState:
    """Limit-cycle occupations: P^mu entering each stroke, rho^mu after it."""

    P_h: float
    P_c: float
    rho00_h: float
    rho11_h: float
    rho00_c: float
    rho11_c: float
    p0: float


def _validate_times(t_h: float, t_c: float) -> None:
    for name, t in (("t_h", t_h), ("t_c", t_c)):
        if not (math.isfinite(t) and t > 0.0):
            raise ValueError(f"{name} must be finite and > 0 (the zero-time map is the identity)")


def fixed_point_from_populations(r0_h: float, r1_h: float,
                                 r0_c: float, r1_c: float) -> LimitCycleState:
    """Closed-form limit cycle from the four stroke-end transition populations."""
    p0 = (r0_c - r1_c) * (r0_h - r1_h)
    if abs(1.0 - p0) < _SINGULAR_TOL:
        raise SingularMapError(
            f"one-cycle map is singular (p0={p0!r}); strokes do not mix the populations"
        )
    p_h = r0_c * r1_h + r1_c * (1.0 - r1_h)
    p_c = r0_h * r1_c + r1_h * (1.0 - r1_c)
    big_p_h = p_h / (1.0 - p0)
    big_p_c = p_c / (1.0 - p0)
    rho00_h = big_p_h * r0_h + (1.0 - big_p_h) * r1_h
    rho00_c = big_p_c * r0_c + (1.0 - big_p_c) * r1_c
    return LimitCycleState(big_p_h, big_p_c, rho00_h, 1.0 - rho00_h,
                           rho00_c, 1.0 - rho00_c, p0)


def fixed_point(t_h: float, t_c: float, hot_grid: StrokeSource, cold_grid: StrokeSource) -> LimitCycleState:
    """Limit-cycle state for stroke durations (t_h, t_c) of the given stroke sources."""
    if not (0.0 < t_h < math.inf and 0.0 < t_c < math.inf):
        _validate_times(t_h, t_c)
    r0_h, r1_h = transition_populations(hot_grid, t_h)
    r0_c, r1_c = transition_populations(cold_grid, t_c)
    return fixed_point_from_populations(r0_h, r1_h, r0_c, r1_c)


def iterate_map(p_initial: float, n: int, t_h: float, t_c: float,
                hot_grid: StrokeSource, cold_grid: StrokeSource) -> float:
    """P^h after n full cycles of the raw map; the oracle for fixed_point."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _validate_times(t_h, t_c)
    r0_h, r1_h = transition_populations(hot_grid, t_h)
    r0_c, r1_c = transition_populations(cold_grid, t_c)
    p = float(p_initial)
    for _ in range(n):
        p_cold = p * (r0_h - r1_h) + r1_h
        p = p_cold * (r0_c - r1_c) + r1_c
    return p
