"""Populations through one isochoric stroke under the time-local solution.

Diagonal initial states keep the qubit diagonal here, so a stroke is fully
described by the ground-state population

    rho00(tau) = exp(A(tau)) * ( rho00(0) - C(tau) ),
    C(tau)     = int_0^tau b(s) exp(-A(s)) ds,

with a, b, A tabulated on the stroke's KernelGrid.  C is accumulated with
the same cumulative Simpson rule as the tables.  Where |A| would overflow
exp (beyond 500), the stroke is solved in blocks, each with A rebased to its
first node and chained through the block end values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import PositivityError
from .kernels import KernelGrid
from .special import cumulative_simpson

__all__ = ["PopulationTrace", "StrokeSource", "propagate", "transition_populations",
           "transition_traces"]

_POSITIVITY_TOL = 1e-9
_EXP_GUARD = 500.0


@dataclass(frozen=True, eq=False)
class PopulationTrace:
    """Ground-state population over one stroke; rho11 is implicitly 1 - rho00."""

    tau: np.ndarray
    rho00: np.ndarray
    value_at_t: float


class StrokeSource(Protocol):
    """One stroke as a cycle reads it: energetics.StrokeTables or energetics.MarkovStroke."""

    omega0: float

    def populations(self, t: float) -> tuple[float, float]: ...
    def flow(self, t: float) -> tuple[float, float]: ...


def _node_floor(step: float, t: float, n: int) -> int:
    k = int(math.floor(t / step + 1e-9))
    return min(max(k, 0), n - 1)


def _solve_full(grid: KernelGrid, initial: float) -> np.ndarray:
    # Blockwise exp(A)*(rho0 - C).  A block starts at an even node s and ends
    # at the last even node before |A - A[s]| exceeds _EXP_GUARD (at least one
    # Simpson pair on), so the pairs are those of the global rule.  In it the
    # closed form runs with A rebased to A[s] and rho0 = rho[s]; its first odd
    # node takes the backward quadratic through s-1, as the one-shot rule does.
    # Since A[0] == 0, max|A| <= _EXP_GUARD is one block: the plain closed form.
    big_a, b, step = grid.A, grid.b, grid.step
    n = big_a.shape[0]
    rho = np.empty(n)
    start, rho_start = 0, float(initial)
    # Where A alone drifts past the exp range within one Simpson pair, the
    # grid is too coarse: raise FloatingPointError rather than return NaN.
    with np.errstate(over="raise", invalid="raise"):
        while True:
            a_start = big_a[start]
            over = np.abs(big_a[start:] - a_start) > _EXP_GUARD
            if over.any():
                end = min(n - 1, start + max(2, (int(over.argmax()) - 1) & ~1))
            else:
                end = n - 1
            block = slice(start, end + 1)
            y = a_start - big_a[block]
            np.exp(y, out=y)
            y *= b[block]
            c = cumulative_simpson(y, step)
            if start > 0:
                c[1] = step / 12.0 * (-b[start - 1] * math.exp(a_start - big_a[start - 1])
                                      + 8.0 * y[0] + 5.0 * y[1])
            del y  # free it before the next block-sized array: keeps the peak memory down
            np.subtract(rho_start, c, out=c)
            growth = big_a[block] - a_start
            np.exp(growth, out=growth)
            np.multiply(growth, c, out=rho[block])
            if end == n - 1:
                return rho
            start, rho_start = end, float(rho[end])


def _check_positivity(rho: np.ndarray, grid: KernelGrid) -> None:
    low, high = int(rho.argmin()), int(rho.argmax())
    if rho[low] < -_POSITIVITY_TOL or rho[high] > 1.0 + _POSITIVITY_TOL:
        below, above = -float(rho[low]), float(rho[high]) - 1.0
        peak = low if below > above else high
        raise PositivityError(max(below, above), float(grid.tau[peak]))


def _validate_t(grid: KernelGrid, t: float) -> float:
    t_max = grid.tau.item(-1)
    if 0.0 <= t <= t_max:
        return t
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and >= 0")
    if t > t_max + 1e-9 * grid.step:
        raise ValueError(f"t={t:g} exceeds grid t_max={t_max:g}")
    return t_max


def _stroke_end(grid: KernelGrid, t: float, first: np.ndarray,
                second: np.ndarray) -> tuple[float, float]:
    """Two full-grid tables of the stroke read at stroke time t.

    The only off-node read: linear between the bracketing nodes, the last
    node at and past t_max (t may exceed it by rounding, see _validate_t).
    """
    pos = _validate_t(grid, t) / grid.step
    i = int(pos)
    if i >= grid.tau.shape[0] - 1:
        return first.item(-1), second.item(-1)
    frac = pos - i
    rest = 1.0 - frac
    return (rest * first.item(i) + frac * first.item(i + 1),
            rest * second.item(i) + frac * second.item(i + 1))


def propagate(initial_rho00: float, grid: KernelGrid, t: float) -> PopulationTrace:
    """Propagate a diagonal state for time t on the stroke's grid.

    Returns the trace at every grid node in [0, t]; off-node t is linearly
    interpolated between the bracketing nodes.
    """
    if not (0.0 <= initial_rho00 <= 1.0):
        raise ValueError("initial ground-state population must lie in [0, 1]")
    t = _validate_t(grid, t)
    full = _solve_full(grid, float(initial_rho00))
    k = _node_floor(grid.step, t, grid.n_points)
    checked = min(k + 1, grid.n_points - 1)
    _check_positivity(full[: checked + 1], grid)
    value, _ = _stroke_end(grid, t, full, full)
    rho = full[: k + 1]
    rho.setflags(write=False)
    return PopulationTrace(tau=grid.tau[: k + 1], rho00=rho, value_at_t=value)


def transition_traces(grid: KernelGrid) -> tuple[np.ndarray, np.ndarray]:
    """Full-grid populations from the two pure initial states (rho00 = 1, 0); solved per call."""
    traces = (_solve_full(grid, 1.0), _solve_full(grid, 0.0))
    for rho in traces:
        _check_positivity(rho, grid)
        rho.setflags(write=False)
    return traces


def transition_populations(stroke: StrokeSource, t: float) -> tuple[float, float]:
    """(rho_{0,00}(t), rho_{1,00}(t)): stroke-end populations from |0> and |1>."""
    return stroke.populations(t)
