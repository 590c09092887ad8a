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
O(1).  Each prefix is taken in place over its integrand, which is filled one
cache block at a time with that block's node times and D2.  A StrokeTables
is the four tables a cycle reads, the two transition traces and the two
prefixes, and its kernel grid's inputs, none of the grid's tables.  The
explicit-integral route for dE_I survives as a cross-check; it rebuilds the
grid from those inputs once per call and forms tau and D2 at the nodes it
integrates.

The Markovian reference (detailed-balance rates, long-time limit) is the
stroke source MarkovStroke, with dE_B = -dE_S and dE_I = 0 identically; it
relaxes at `markov_rate` to the Gibbs state (`kernels.gibbs_populations`).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .cycle import StrokeEnergetics
from .dynamics import StrokeSource, _check_stroke_time, _stroke_end, _validate_t, transition_traces
from .kernels import (BathSpec, KernelGrid, bose_occupation, build_kernel_grid, dissipation_kernel,
                      gibbs_populations, node_times, spectral_density)
from .limit_cycle import LimitCycleState, _new
from .special import cache_blocks, cumulative_simpson, simpson

__all__ = ["MarkovStroke", "StrokeTables", "bath_flow_tables", "eq_interaction_integral",
           "stroke_energetics", "markov_rate"]


# Each stroke's (P, rho11_after) positions in a LimitCycleState.
_ENTRIES = {label: tuple(map(LimitCycleState._fields.index, fields))
            for label, fields in (("hot", ("P_h", "rho11_h")), ("cold", ("P_c", "rho11_c")))}


def _entry(lc: LimitCycleState, label: str) -> tuple[float, float, float]:
    """(P, rho11_after, rho11_entering) for the requested stroke; any label
    that is neither "hot" nor "cold" raises ValueError."""
    try:
        p, after = _ENTRIES[label]
    except (KeyError, TypeError):  # an unhashable label raises TypeError
        raise ValueError(f"label must be 'hot' or 'cold', got {label!r}") from None
    p = lc[p]
    return p, lc[after], 1.0 - p


def _kernel_grid(stroke) -> KernelGrid:
    """The kernel grid of `stroke`'s inputs, built anew with its node count.

    The grid is asked for a t_max midway between its last two nodes, so that
    no rounding can add or drop a node.  Asked for its own t_max, (n_points
    - 1) * step, it could get one node more: that product may round up past
    the last node.
    """
    return build_kernel_grid(stroke.bath, stroke.omega0, (stroke.n_points - 1.5) * stroke.step,
                             stroke.step)


@dataclass(frozen=True, eq=False)
class StrokeTables:
    """One TCL2 stroke as a cycle reads it: the transition traces from |0>
    and |1> and the flow prefixes base and pop, every array read-only.

    The stroke keeps its kernel grid's inputs (bath, omega0, step, n_points;
    t_max is the last node), not its tables: the grid is dropped once the
    traces and prefixes are taken, and only the explicit-integral oracle
    rebuilds it.

    The stroke reads its tables once per stroke time: the first
    `populations(t)` or `flow(t)` reads both table pairs (`_stroke_end`)
    and keeps them in `_reads`, `{t: (populations, flow)}`, which answers
    every later read at t, from any caller, with the same bits.  A read
    that raises keeps nothing.
    """

    bath: BathSpec
    omega0: float
    step: float
    n_points: int
    t_max: float
    from_ground: np.ndarray
    from_excited: np.ndarray
    base: np.ndarray
    pop: np.ndarray
    _reads: dict = field(default_factory=dict, init=False, repr=False)

    def populations(self, t: float) -> tuple[float, float]:
        return (self._reads.get(t) or self._read(t))[0]

    def flow(self, t: float) -> tuple[float, float]:
        return (self._reads.get(t) or self._read(t))[1]

    def _read(self, t: float) -> tuple[tuple[float, float], tuple[float, float]]:
        reads = self._reads[t] = (_stroke_end(self, t, self.from_ground, self.from_excited),
                                  _stroke_end(self, t, self.base, self.pop))
        return reads


def bath_flow_tables(bath: BathSpec, omega0: float, step: float, noise: np.ndarray,
                     from_ground: np.ndarray, from_excited: np.ndarray) -> StrokeTables:
    """The stroke of a grid whose noise kernel D1 is `noise`: its two traces
    and the cumulative prefixes of the counting-statistics integrand.  base(t)
    collects the P-independent part, pop(t) the coefficient of P; the stroke
    integral is base + P * pop.
    """
    # Each integrand is filled one cache block at a time into the table that
    # keeps its prefix.
    n = noise.shape[0]
    base, pop = np.empty(n), np.empty(n)
    for block in cache_blocks(n):
        d1, tau = noise[block], node_times(block, step)
        sin_w = np.sin(omega0 * tau)
        cos_w = np.cos(omega0 * tau)
        base[block] = (2.0 * from_excited[block] - 1.0) * d1 * sin_w + dissipation_kernel(tau, bath) * cos_w
        pop[block] = 2.0 * (from_ground[block] - from_excited[block]) * d1 * sin_w
    cumulative_simpson(base, step)
    cumulative_simpson(pop, step)
    base.setflags(write=False)
    pop.setflags(write=False)
    return StrokeTables(bath=bath, omega0=omega0, step=step, n_points=n, t_max=(n - 1) * step,
                        from_ground=from_ground, from_excited=from_excited, base=base, pop=pop)


def eq_interaction_integral(lc: LimitCycleState, label: str, grid: KernelGrid | StrokeTables,
                            t: float) -> float:
    """Explicit-integral route for dE_I; independent of the stroke tables.

    Rebuilds the kernel grid from its inputs (one build per call),
    re-solves the traces from it, forms tau and D2 at its first k + 1 nodes,
    applies the limit-cycle weight pointwise and integrates with the one-shot
    composite rule.  t is expected to sit on the grid node k.
    """
    t = _validate_t(grid, t)
    p_enter, _, _ = _entry(lc, label)
    k = int(round(t / grid.step))
    if abs(k * grid.step - t) > 1e-9 * grid.step:
        raise ValueError("the explicit-integral route requires t on a grid node")
    grid = _kernel_grid(grid)
    from_ground, from_excited = transition_traces(grid)
    tau = node_times(slice(0, k + 1), grid.step)
    mixed = p_enter * from_ground[: k + 1] + (1.0 - p_enter) * from_excited[: k + 1]
    integrand = (2.0 * mixed - 1.0) * grid.D1[: k + 1] * np.sin(grid.omega0 * tau) \
        + dissipation_kernel(tau, grid.bath) * np.cos(grid.omega0 * tau)
    return -float(simpson(integrand, grid.step))


def stroke_energetics(lc: LimitCycleState, label: str, stroke: StrokeSource, t: float) -> StrokeEnergetics:
    """dE_S, dE_B, dE_I of one stroke as a unit, at the stroke's qubit frequency."""
    p_enter, after, entering = _entry(lc, label)
    base, pop = stroke.flow(t)
    des = stroke.omega0 * (after - entering)
    deb = -des + (base + p_enter * pop)
    return _new(StrokeEnergetics, (des, deb, -des - deb))


def markov_rate(bath: BathSpec, omega: float) -> float:
    """GKSL relaxation rate 2*pi*J(omega)*(1 + 2n(omega)); where omega/T is
    so small that 2n overflows (n itself may be inf), its limit
    4*pi*lam*T*exp(-omega/cutoff), with 2n ~ 2T/omega."""
    n = bose_occupation(omega, bath.temperature)
    if 2.0 * n == math.inf:
        return 4.0 * math.pi * bath.coupling * bath.temperature * math.exp(-omega / bath.cutoff)
    return 2.0 * math.pi * float(spectral_density(omega, bath)) * (1.0 + 2.0 * n)


@dataclass(frozen=True)
class MarkovStroke:
    """One stroke of the Markovian reference: closed-form populations, no flow
    term.  Its stationary population, the Gibbs ground population, and its
    rate are computed once, from the bath.
    """

    bath: InitVar[BathSpec]
    omega0: float
    stationary: float = field(init=False, repr=False)
    rate: float = field(init=False, repr=False)

    def __post_init__(self, bath: BathSpec):
        object.__setattr__(self, "stationary", gibbs_populations(self.omega0, bath.temperature)[0])
        object.__setattr__(self, "rate", markov_rate(bath, self.omega0))

    def populations(self, t: float) -> tuple[float, float]:
        _check_stroke_time(t)
        s, decay = self.stationary, math.exp(-self.rate * t)
        return s + (1.0 - s) * decay, s + (0.0 - s) * decay

    def flow(self, t: float) -> tuple[float, float]:
        _check_stroke_time(t)
        return 0.0, 0.0

