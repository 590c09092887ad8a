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

closes the balance exactly.  The integral is linear in P, so each stroke's
StrokeTables carries two cumulative prefix tables and a stroke evaluation is
O(1).  The explicit-integral route for dE_I survives as a cross-check.

The Markovian reference (detailed-balance rates, long-time limit) is the
stroke source MarkovStroke, with dE_B = -dE_S and dE_I = 0 identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .cycle import StrokeEnergetics
from .dynamics import StrokeSource, _stroke_end, _validate_t, transition_traces
from .kernels import BathSpec, KernelGrid, bose_occupation, spectral_density
from .limit_cycle import LimitCycleState
from .special import cumulative_simpson, simpson

__all__ = ["MarkovStroke", "StrokeTables", "bath_flow_tables", "eq_interaction_integral",
           "stroke_energetics", "markov_population", "markov_rate"]


def _entry(lc: LimitCycleState, label: str) -> tuple[float, float, float]:
    """(P, rho11_after, rho11_entering) for the requested stroke."""
    if label == "hot":
        return lc.P_h, lc.rho11_h, 1.0 - lc.P_h
    if label == "cold":
        return lc.P_c, lc.rho11_c, 1.0 - lc.P_c
    raise ValueError(f"label must be 'hot' or 'cold', got {label!r}")


@dataclass(frozen=True, eq=False)
class StrokeTables(KernelGrid):
    """One TCL2 stroke: its grid's tables, the transition traces from |0> and
    |1>, and the flow prefixes base and pop; every array read-only.
    """

    from_ground: np.ndarray
    from_excited: np.ndarray
    base: np.ndarray
    pop: np.ndarray

    def populations(self, t: float) -> tuple[float, float]:
        return _stroke_end(self, t, self.from_ground, self.from_excited)

    def flow(self, t: float) -> tuple[float, float]:
        return _stroke_end(self, t, self.base, self.pop)


def bath_flow_tables(grid: KernelGrid, from_ground: np.ndarray,
                     from_excited: np.ndarray) -> StrokeTables:
    """The stroke's tables: `grid`'s, its two traces and the cumulative prefixes
    of the counting-statistics integrand.  base(t) collects the P-independent
    part, pop(t) the coefficient of P; the stroke integral is base + P * pop.
    """
    sin_w = np.sin(grid.omega0 * grid.tau)
    cos_w = np.cos(grid.omega0 * grid.tau)
    base = cumulative_simpson((2.0 * from_excited - 1.0) * grid.D1 * sin_w + grid.D2 * cos_w, grid.step)
    pop = cumulative_simpson(2.0 * (from_ground - from_excited) * grid.D1 * sin_w, grid.step)
    base.setflags(write=False)
    pop.setflags(write=False)
    return StrokeTables(**{f.name: getattr(grid, f.name) for f in fields(KernelGrid)},
                        from_ground=from_ground, from_excited=from_excited, base=base, pop=pop)


def eq_interaction_integral(lc: LimitCycleState, label: str, grid: KernelGrid, t: float) -> float:
    """Explicit-integral route for dE_I; independent of the stroke tables.

    Re-solves the traces from the grid, applies the limit-cycle weight
    pointwise and integrates with the one-shot composite rule.  t is expected
    to sit on a grid node.
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


def stroke_energetics(lc: LimitCycleState, label: str, stroke: StrokeSource, t: float) -> StrokeEnergetics:
    """dE_S, dE_B, dE_I of one stroke as a unit, at the stroke's qubit frequency."""
    p_enter, after, entering = _entry(lc, label)
    base, pop = stroke.flow(t)
    des = stroke.omega0 * (after - entering)
    deb = -des + (base + p_enter * pop)
    return StrokeEnergetics(des, deb, -des - deb)


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


@dataclass(frozen=True)
class MarkovStroke:
    """One stroke of the Markovian reference: closed-form populations, no flow
    term.  Its stationary population and rate are computed once, at construction.
    """

    bath: BathSpec
    omega0: float
    stationary: float = field(init=False, repr=False)
    rate: float = field(init=False, repr=False)

    def __post_init__(self):
        n = bose_occupation(self.omega0, self.bath.temperature)
        object.__setattr__(self, "stationary", (1.0 + n) / (1.0 + 2.0 * n))
        object.__setattr__(self, "rate", markov_rate(self.bath, self.omega0))

    def populations(self, t: float) -> tuple[float, float]:
        if t < 0.0:
            raise ValueError("t must be >= 0")
        s, decay = self.stationary, math.exp(-self.rate * t)
        return s + (1.0 - s) * decay, s + (0.0 - s) * decay

    def flow(self, t: float) -> tuple[float, float]:
        return 0.0, 0.0
