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
from weakref import WeakKeyDictionary

import numpy as np

from .errors import PositivityError
from .kernels import KernelGrid
from .special import cumulative_simpson

__all__ = ["PopulationTrace", "propagate", "transition_populations", "transition_traces"]

_POSITIVITY_TOL = 1e-9
_EXP_GUARD = 500.0


@dataclass(frozen=True, eq=False)
class PopulationTrace:
    """Ground-state population over one stroke; rho11 is implicitly 1 - rho00."""

    grid: KernelGrid
    initial: float
    t: float
    tau: np.ndarray
    rho00: np.ndarray
    value_at_t: float


def _interp(values: np.ndarray, step: float, t: float) -> float:
    pos = t / step
    i = int(pos)
    if i >= values.shape[0] - 1:
        return float(values[-1])
    frac = pos - i
    return float((1.0 - frac) * values[i] + frac * values[i + 1])


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
    low = float(rho.min())
    high = float(rho.max())
    if low < -_POSITIVITY_TOL or high > 1.0 + _POSITIVITY_TOL:
        raise PositivityError(
            f"population left [0,1] (min={low:.3e}, max={high:.3e}); "
            f"grid step {grid.step:g} too coarse or parameters outside the weak-coupling regime"
        )


def _validate_t(grid: KernelGrid, t: float) -> float:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and >= 0")
    if t > grid.t_max + 1e-9 * grid.step:
        raise ValueError(f"t={t:g} exceeds grid t_max={grid.t_max:g}")
    return min(t, grid.t_max)


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
    value = _interp(full, grid.step, t)
    rho = full[: k + 1]
    rho.setflags(write=False)
    return PopulationTrace(grid=grid, initial=float(initial_rho00), t=t,
                           tau=grid.tau[: k + 1], rho00=rho, value_at_t=value)


_transition_cache: WeakKeyDictionary = WeakKeyDictionary()


def transition_traces(grid: KernelGrid) -> tuple[np.ndarray, np.ndarray]:
    """Full-grid populations from the two pure initial states (rho00 = 1, 0)."""
    cached = _transition_cache.get(grid)
    if cached is None:
        rho_from_ground = _solve_full(grid, 1.0)
        rho_from_excited = _solve_full(grid, 0.0)
        _check_positivity(rho_from_ground, grid)
        _check_positivity(rho_from_excited, grid)
        rho_from_ground.setflags(write=False)
        rho_from_excited.setflags(write=False)
        cached = (rho_from_ground, rho_from_excited)
        _transition_cache[grid] = cached
    return cached


def transition_populations(grid: KernelGrid, t: float) -> tuple[float, float]:
    """(rho_{0,00}(t), rho_{1,00}(t)): stroke-end populations from |0> and |1>."""
    t = _validate_t(grid, t)
    from_ground, from_excited = transition_traces(grid)
    return _interp(from_ground, grid.step, t), _interp(from_excited, grid.step, t)
