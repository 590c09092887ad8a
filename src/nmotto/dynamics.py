"""Populations through one isochoric stroke under the time-local solution.

Diagonal initial states keep the qubit diagonal here, so a stroke is fully
described by the ground-state population

    rho00(tau) = exp(A(tau)) * ( rho00(0) - C(tau) ),
    C(tau)     = int_0^tau b(s) exp(-A(s)) ds,

with b and A (the running integral of the rate a) tabulated on the
stroke's KernelGrid, the two tables the solve reads.  The module holds one
solve and one read.  The population is affine in rho00(0):
`transition_traces` solves the pure starts 1 and 0 in one pass, and any
other start is their mix (formed only by the `stroke` dump,
`sweep.write_trace_csv`).  `_stroke_end` reads a stroke's full-grid tables
at its end time, for `energetics.StrokeTables`.  C takes the cumulative
Simpson rule of the tables, in cache blocks (`special.CACHE_BLOCK` nodes),
in place in the first trace.  Where |A| would overflow exp (beyond 500),
the stroke is solved in guard segments, each with A rebased to its first
node and chained through the segment end values; a guard segment is as long
as the exp range allows, whatever the cache block, and is found one cache
block at a time.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from .errors import GridError, PositivityError
from .kernels import KernelGrid, gibbs_populations
from .special import cache_blocks, cumulative_simpson

__all__ = ["StrokeSource", "transition_populations", "transition_traces"]

_POSITIVITY_TOL = 1e-9
_EXP_GUARD = 500.0


class StrokeSource(Protocol):
    """One stroke as a cycle reads it: energetics.StrokeTables or energetics.MarkovStroke."""

    omega0: float

    def populations(self, t: float) -> tuple[float, float]: ...
    def flow(self, t: float) -> tuple[float, float]: ...


def _check_positivity(rho: np.ndarray, grid: KernelGrid) -> None:
    low, high = int(rho.argmin()), int(rho.argmax())
    if rho[low] < -_POSITIVITY_TOL or rho[high] > 1.0 + _POSITIVITY_TOL:
        below, above = -float(rho[low]), float(rho[high]) - 1.0
        peak = low if below > above else high
        raise PositivityError(max(below, above), peak * grid.step,
                              gibbs_populations(grid.omega0, grid.bath.temperature)[1])


def _check_stroke_time(t: float) -> None:
    """The one stroke-time rule: any finite t >= 0 (NaN fails the comparison)."""
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and >= 0")


def _validate_t(grid: KernelGrid, t: float) -> float:
    t_max = grid.t_max
    if 0.0 <= t <= t_max:
        return t
    _check_stroke_time(t)
    if t > t_max + 1e-9 * grid.step:
        raise ValueError(f"t={t:g} exceeds grid t_max={t_max:g}")
    return t_max


def _stroke_end(grid: KernelGrid, t: float, first: np.ndarray,
                second: np.ndarray) -> tuple[float, float]:
    """Two full-grid tables of the stroke read at stroke time t.

    The package's only off-node read of a stroke table: linear between the
    bracketing nodes, the last node at and past t_max (t may exceed it by
    rounding, see _validate_t).
    """
    pos = _validate_t(grid, t) / grid.step
    i = int(pos)
    if i >= grid.n_points - 1:
        return first.item(-1), second.item(-1)
    frac = pos - i
    rest = 1.0 - frac
    return (rest * first.item(i) + frac * first.item(i + 1),
            rest * second.item(i) + frac * second.item(i + 1))


def _guard_end(big_a: np.ndarray, start: int) -> int:
    """The last node of the guard segment that starts at `start`, found one
    cache block at a time."""
    n, a_start = big_a.shape[0], big_a[start]
    for block in cache_blocks(n - start):
        over = abs(big_a[start + block.start:start + block.stop] - a_start) > _EXP_GUARD
        if over.any():
            return min(n - 1, start + max(2, (block.start + int(over.argmax()) - 1) & ~1))
    return n - 1


def transition_traces(grid: KernelGrid) -> tuple[np.ndarray, np.ndarray]:
    """Full-grid populations from the two pure initial states (rho00 = 1, 0),
    solved per call in one pass: C and exp(A) do not depend on rho00(0).

    A guard segment starts at an even node s and ends at the last even node
    before |A - A[s]| exceeds _EXP_GUARD (at least one Simpson pair on, or
    the grid's last node), so the pairs are those of the global rule.  In it
    the closed form runs with A rebased to A[s], each trace starting from
    its value at s; the first odd node takes the backward quadratic through
    s-1, as the one-shot rule does.
    Since A[0] == 0, max|A| <= _EXP_GUARD is one segment: the plain form.
    The segment's C is taken in place in the first trace's slice, and the
    growth exp(A - A[s]) is applied one cache block at a time.
    """
    big_a, b, step = grid.A, grid.b, grid.step
    n = big_a.shape[0]
    traces = (np.empty(n), np.empty(n))
    start, starts = 0, (1.0, 0.0)
    # Where A alone drifts past the exp range within one Simpson pair, the
    # grid is too coarse: numpy's overflow becomes a GridError, not NaN.
    try:
        with np.errstate(over="raise", invalid="raise"):
            while True:
                a_start = big_a[start]
                end = _guard_end(big_a, start)
                c = traces[0][start:end + 1]
                np.subtract(a_start, big_a[start:end + 1], out=c)
                np.exp(c, out=c)
                c *= b[start:end + 1]
                y0, y1 = c[0], c[1]
                # A two-node segment (the grid's last, odd node) has no pair: C is
                # 0 at its start and the backward quadratic below at its end.
                if end > start + 1:
                    cumulative_simpson(c, step)
                c[0] = 0.0
                if start > 0:
                    c[1] = step / 12.0 * (-b[start - 1] * math.exp(a_start - big_a[start - 1])
                                          + 8.0 * y0 + 5.0 * y1)
                # The second trace is written from C before the first overwrites it.
                for block in cache_blocks(end + 1 - start):
                    nodes = slice(start + block.start, start + block.stop)
                    growth = np.exp(big_a[nodes] - a_start)
                    for trace, rho_start in zip(reversed(traces), reversed(starts)):
                        np.subtract(rho_start, c[block], out=trace[nodes])
                        trace[nodes] *= growth
                if end == n - 1:
                    break
                start, starts = end, (traces[0].item(end), traces[1].item(end))
    except (FloatingPointError, OverflowError) as exc:
        raise GridError(f"A leaves the exp range within one Simpson pair (step {step:g});"
                        " decrease h") from exc
    for rho in traces:
        _check_positivity(rho, grid)
        rho.setflags(write=False)
    return traces


def transition_populations(stroke: StrokeSource, t: float) -> tuple[float, float]:
    """(rho_{0,00}(t), rho_{1,00}(t)): stroke-end populations from |0> and |1>."""
    return stroke.populations(t)
