"""Numerical primitives: complex trigamma and Simpson quadrature.

Trigamma treats every point on its own and takes only finite arguments
with Re z > 0, the half-plane of the noise kernel's argument T(1 + iOmega
tau)/Omega.  A point with |z| < 10 takes upward recurrence steps
psi'(z) = psi'(z+1) + 1/z^2 until |z| >= 10, at most 10 of them; every point
then takes the asymptotic series with Bernoulli numbers through B12
(Abramowitz & Stegun 6.4.12).  A value thus never depends on the other
points of its batch.  Quadrature is composite Simpson; the cumulative-prefix
variant returns the running integral at every node of a uniform grid and is
shared by the kernel tables and the stroke propagation.

Full-length tables are built in cache blocks of CACHE_BLOCK nodes
(`cache_blocks`): the cumulative prefix takes its Simpson pairs one cache
block at a time, carrying the running sum from block to block, and the
kernel and flow tables fill their integrands the same way.  The prefix is
taken in place, over its integrand: a table holds its integrand and then
its prefix, and no second full-length table is needed.  Neither trigamma
nor the prefix depends on where the blocks fall, so a table has the bits of
a one-pass build.  A fill's temporaries live in one `BlockBuffers` set
(owned by `kernels.trig_blocks`), allocated at its first block and reused by
the rest, so the allocator does not fault them in again at every block.
"""

from __future__ import annotations

import numpy as np

from .errors import PoleError

__all__ = [
    "BlockBuffers",
    "trigamma_values",
    "simpson",
    "cumulative_simpson",
    "cache_blocks",
    "CACHE_BLOCK",
]

# Bernoulli numbers B2..B12 for the asymptotic tail of psi'.
_B2 = 1.0 / 6.0
_B4 = -1.0 / 30.0
_B6 = 1.0 / 42.0
_B8 = -1.0 / 30.0
_B10 = 5.0 / 66.0
_B12 = -691.0 / 2730.0

_ASYMPTOTIC_ABS = 10.0

# Nodes per cache block.  Every full-length table of a stroke is filled one
# cache block at a time, so the temporaries of a fill (the trigamma
# arguments, the integrands' products, the Simpson pairs) stay cache-sized
# whatever the grid's length.  Even, so that a block holds whole Simpson
# pairs; 2**15 nodes make a ~20000-node grid (t_max ~ 1000 at step 0.05)
# one block.
CACHE_BLOCK = 1 << 15


class BlockBuffers:
    """Scratch arrays of one cache-blocked fill, allocated at its first block
    and reused by every later one, so that a fill does not return its
    temporaries to the allocator and fault them back in, block after block.

    `take(slot, n, dtype)` is the first n elements of the numbered array of
    that dtype, grown to n if it is shorter.  Each function that takes a set
    says which slots it writes and which one holds its result, until the
    slot's next writer.
    """

    def __init__(self):
        self._arrays: dict = {}

    def take(self, slot: int, n: int, dtype=np.float64) -> np.ndarray:
        key = (slot, np.dtype(dtype))
        whole = self._arrays.get(key)
        if whole is None or whole.shape[0] < n:
            whole = self._arrays[key] = np.empty(n, dtype)
        return whole[:n]


def trigamma_values(z, buffers: BlockBuffers | None = None) -> np.ndarray:
    """psi'(z) = sum_{k>=0} 1/(z+k)^2 elementwise, in z's shape (0-d for a scalar).

    Every argument must be finite with Re z > 0, else PoleError is raised
    before any work.  Each element is computed from its own argument alone,
    with at most 10 recurrence steps, so a batch gives the same bits as
    per-point calls.  Within 1.1e-14 relative of mpmath (the series
    truncation at |z| = 10 sets it).

    The work is done in complex slots 0-3 of `buffers` (a set of its own
    without them), and slot 0 holds the result.  The argument is copied into
    slot 0, which costs nothing when it is already there.
    """
    zc = np.asarray(z, dtype=np.complex128)
    if buffers is None:
        buffers = BlockBuffers()
    m = zc.size
    w = buffers.take(0, m, np.complex128)
    np.copyto(w, zc.reshape(-1))
    if not np.isfinite(w).all():
        raise PoleError("trigamma arguments must be finite")
    outside = ~(w.real > 0.0)
    if outside.any():
        raise PoleError(f"trigamma argument z = {w[outside][0]} outside Re z > 0")
    near = np.flatnonzero(np.abs(w) < _ASYMPTOTIC_ABS)
    wn = w[near]
    shift = np.zeros_like(wn)
    # Re w > 0, so ten steps take every point to |w| > 10.
    for _ in range(int(_ASYMPTOTIC_ABS)):
        below = np.abs(wn) < _ASYMPTOTIC_ABS
        wb = wn[below]
        shift[below] += 1.0 / (wb * wb)
        wn[below] = wb + 1.0
    w[near] = wn
    # A product may write into a separate out= array but never over one of
    # its own operands: numpy rounds an in-place complex multiply
    # differently, which would break batch invariance.  Sums are taken in
    # place.  Once r is formed, slots 0 and 3 take the polynomial in turn.
    r = np.divide(1.0, w, out=buffers.take(1, m, np.complex128))
    r2 = np.multiply(r, r, out=buffers.take(2, m, np.complex128))
    poly, spare = np.multiply(_B12, r2, out=w), buffers.take(3, m, np.complex128)
    for b in (_B10, _B8, _B6, _B4):
        poly += b
        poly, spare = np.multiply(poly, r2, out=spare), poly
    poly += _B2
    out = np.multiply(np.multiply(poly, r2, out=spare), r, out=poly)
    out += np.multiply(0.5, r2, out=spare)
    out += r
    out[near] += shift
    if not np.all(np.isfinite(out.view(np.float64))):
        raise PoleError("trigamma produced a non-finite value; argument too close to the pole at 0")
    return out.reshape(zc.shape)


def simpson(y, step: float) -> float:
    """Composite Simpson for uniformly sampled values.

    An odd number of intervals is closed with the standard three-point
    end correction, so the rule degrades gracefully off even counts.
    """
    y = np.asarray(y)
    n = y.shape[0]
    if n < 2:
        return 0.0
    if n == 2:
        return 0.5 * step * (y[0] + y[1])
    if n % 2 == 1:
        core = step / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())
        return core
    head = simpson(y[:-1], step)
    return head + step / 12.0 * (-y[-3] + 8.0 * y[-2] + 5.0 * y[-1])


def cache_blocks(n: int) -> list[slice]:
    """Slices of CACHE_BLOCK consecutive nodes covering range(n) in order.

    The last one may be shorter; every other one starts and ends on an even
    node, so it holds whole Simpson pairs.
    """
    size = CACHE_BLOCK
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def cumulative_simpson(y: np.ndarray, step: float) -> np.ndarray:
    """Running integral of uniform samples at every grid node, written over y and returned.

    Interior pairs integrate the local quadratic interpolant, so the value
    at even nodes coincides with composite Simpson; y[0] becomes 0.  The
    prefix is taken one cache block of pairs at a time, each block's running
    sum starting from the last even node of the one before.  A grid needs at
    least 3 nodes (one Simpson pair), else ValueError.
    """
    step = float(step)
    n = y.shape[0]
    if n < 3:
        raise ValueError(f"cumulative Simpson needs at least 3 nodes, got {n}")
    # Odd nodes integrate the backward-looking quadratic (forward at node 1,
    # which has no left neighbour), matching the one-shot rule's tail so the
    # prefix at any node equals the truncated composite rule.
    # A block reads its integrand from its first node to one past its last
    # even node, the next block's first two nodes; their prefix values are
    # held until that block has read them, and y[0] is set last.
    held_at, held = 1, [step / 12.0 * (5.0 * y[0] + 8.0 * y[1] - y[2])]
    carry = 0.0
    for block in cache_blocks(2 * ((n - 1) // 2)):
        # The Simpson pairs whose left node lies in the block: nodes start .. end.
        start, end = block.start, block.stop
        # run[0] carries the prefix at `start`; run[1:] becomes the prefix
        # at the block's even nodes start+2 .. end.  numpy accumulates in
        # order, so the sums are those of one cumsum over the whole grid.
        pairs = (end - start) // 2
        run = np.empty(pairs + 1, dtype=y.dtype)
        run[0] = carry
        run[1:] = step / 3.0 * (y[start:end - 1:2] + 4.0 * y[start + 1:end:2] + y[start + 2:end + 1:2])
        # Odd nodes start+3 .. end+1, the last one only if the grid has it.
        odd = pairs - (end == n - 1)
        stop = start + 2 * odd + 2
        tail = step / 12.0 * (-y[start + 1:stop - 2:2] + 8.0 * y[start + 2:stop - 1:2] + 5.0 * y[start + 3:stop:2])
        # The first block adds no carry: 0.0 + -0.0 would turn a -0.0 sum positive.
        head = 1 if start == 0 else 0
        np.cumsum(run[head:], out=run[head:])
        np.add(run[1:odd + 1], tail, out=tail)
        y[held_at:held_at + len(held)] = held
        y[start + 2:end:2] = run[1:pairs]
        y[start + 3:end:2] = tail[:pairs - 1]
        carry = run[pairs]
        held_at, held = end, [carry, *tail[pairs - 1:odd]]
    y[held_at:held_at + len(held)] = held
    y[0] = 0.0
    return y
