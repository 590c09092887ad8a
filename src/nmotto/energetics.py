"""Per-stroke energy changes of qubit, bath and interaction.

The qubit's change over stroke mu is

    dE_S = omega * (rho11_after - rho11_entering),

with both populations taken at the limit cycle.  The bath's change follows
from the first energy cumulant of the counting statistics,

    dE_B = -dE_S + int_0^t [ (2 rho00(tau) - 1) D1(tau) sin(omega tau)
                             + D2(tau) cos(omega tau) ] dtau,

where rho00(tau) = P rho_{0,00}(tau) + (1-P) rho_{1,00}(tau) mixes the two
transition traces with the limit-cycle weight P, and

    dE_I = -dE_S - dE_B

closes the balance exactly.  The integral is linear in P, so each grid
carries two cumulative prefix tables and a stroke evaluation is O(1).
The explicit-integral route for dE_I survives separately as a cross-check.

The Markovian reference (detailed-balance rates, long-time limit) has
dE_B = -dE_S and dE_I = 0 identically.
"""

from __future__ import annotations

import math
from weakref import WeakKeyDictionary

import numpy as np

from .cycle import CycleReport, StrokeEnergetics, assemble_report
from .dynamics import _stroke_end, _validate_t, transition_traces
from .kernels import BathSpec, KernelGrid, bose_occupation, spectral_density
from .limit_cycle import LimitCycleState, fixed_point_from_populations
from .special import cumulative_simpson, simpson

__all__ = [
    "eq_interaction_integral",
    "stroke_energetics",
    "markov_population",
    "markov_rate",
    "markov_cycle",
]


def _entry(lc: LimitCycleState, label: str) -> tuple[float, float, float]:
    """(P, rho11_after, rho11_entering) for the requested stroke."""
    if label == "hot":
        return lc.P_h, lc.rho11_h, 1.0 - lc.P_h
    if label == "cold":
        return lc.P_c, lc.rho11_c, 1.0 - lc.P_c
    raise ValueError(f"label must be 'hot' or 'cold', got {label!r}")


def _dE_S(lc: LimitCycleState, label: str, omega: float) -> float:
    """omega * (population after the stroke minus population entering it)."""
    _, after, entering = _entry(lc, label)
    return omega * (after - entering)


_flow_tables: WeakKeyDictionary = WeakKeyDictionary()


def _bath_flow_tables(grid: KernelGrid) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative prefixes of the counting-statistics integrand.

    base(t) collects the P-independent part, pop(t) the coefficient of P;
    the stroke integral is base(t) + P * pop(t).
    """
    cached = _flow_tables.get(grid)
    if cached is None:
        from_ground, from_excited = transition_traces(grid)
        sin_w = np.sin(grid.omega0 * grid.tau)
        cos_w = np.cos(grid.omega0 * grid.tau)
        base = cumulative_simpson((2.0 * from_excited - 1.0) * grid.D1 * sin_w + grid.D2 * cos_w, grid.step)
        pop = cumulative_simpson(2.0 * (from_ground - from_excited) * grid.D1 * sin_w, grid.step)
        base.setflags(write=False)
        pop.setflags(write=False)
        cached = (base, pop)
        _flow_tables[grid] = cached
    return cached


def eq_interaction_integral(lc: LimitCycleState, label: str, grid: KernelGrid, t: float) -> float:
    """Explicit-integral route for dE_I; independent of the prefix tables.

    Rebuilds the full integrand with the limit-cycle weight applied pointwise
    and integrates it with the one-shot composite rule.  t is expected to sit
    on a grid node.
    """
    t = _validate_t(grid, t)
    p_enter, _, _ = _entry(lc, label)
    k = int(round(t / grid.step))
    if abs(k * grid.step - t) > 1e-9 * grid.step:
        raise ValueError("the explicit-integral route requires t on a grid node")
    from_ground, from_excited = transition_traces(grid)
    tau = grid.tau[: k + 1]
    mixed = p_enter * from_ground[: k + 1] + (1.0 - p_enter) * from_excited[: k + 1]
    integrand = (2.0 * mixed - 1.0) * grid.D1[: k + 1] * np.sin(grid.omega0 * tau) \
        + grid.D2[: k + 1] * np.cos(grid.omega0 * tau)
    return -float(simpson(integrand, grid.step))


def stroke_energetics(lc: LimitCycleState, label: str, grid: KernelGrid, t: float) -> StrokeEnergetics:
    """dE_S, dE_B, dE_I of one stroke as a unit, at the grid's qubit frequency."""
    p_enter, after, entering = _entry(lc, label)
    base, pop = _stroke_end(grid, t, _bath_flow_tables(grid))
    des = grid.omega0 * (after - entering)
    deb = -des + (base + p_enter * pop)
    return StrokeEnergetics(dE_S=des, dE_B=deb, dE_I=-des - deb)


def markov_rate(bath: BathSpec, omega: float) -> float:
    """GKSL relaxation rate 2*pi*J(omega)*(1 + 2n(omega))."""
    n = bose_occupation(omega, bath.temperature)
    return 2.0 * math.pi * spectral_density(omega, bath) * (1.0 + 2.0 * n)


def markov_population(initial_rho00: float, bath: BathSpec, omega: float, t: float) -> float:
    """Ground population under the Born-Markov reference dynamics."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    n = bose_occupation(omega, bath.temperature)
    stationary = (1.0 + n) / (1.0 + 2.0 * n)
    return stationary + (initial_rho00 - stationary) * math.exp(-markov_rate(bath, omega) * t)


def markov_fixed_point(t_h: float, t_c: float, hot_bath: BathSpec, cold_bath: BathSpec,
                       omega_h: float, omega_c: float) -> LimitCycleState:
    """Limit cycle of the Markovian reference (closed-form populations)."""
    r0_h = markov_population(1.0, hot_bath, omega_h, t_h)
    r1_h = markov_population(0.0, hot_bath, omega_h, t_h)
    r0_c = markov_population(1.0, cold_bath, omega_c, t_c)
    r1_c = markov_population(0.0, cold_bath, omega_c, t_c)
    return fixed_point_from_populations(r0_h, r1_h, r0_c, r1_c)


def markov_cycle(t_h: float, t_c: float, hot_bath: BathSpec, cold_bath: BathSpec,
                 omega_h: float, omega_c: float, sign_eps: float = 1e-12) -> CycleReport:
    """Full cycle report in the Markovian reference: dE_I = 0, no detachment work."""
    lc = markov_fixed_point(t_h, t_c, hot_bath, cold_bath, omega_h, omega_c)
    des_h = _dE_S(lc, "hot", omega_h)
    des_c = _dE_S(lc, "cold", omega_c)
    return assemble_report(t_h, t_c, lc, omega_h, omega_c,
                           StrokeEnergetics(des_h, -des_h, 0.0),
                           StrokeEnergetics(des_c, -des_c, 0.0), sign_eps)
