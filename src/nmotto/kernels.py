"""Bath correlation kernels and the time-local rate tables.

A bath is an Ohmic J(w) = lam * w * exp(-w/cutoff) at temperature T, nothing
more: hot or cold is its role in the cycle (`RunConfig.stroke`).  Its two
real correlation kernels have closed forms:

    D1(tau) = 2*lam*( cutoff^2 * ((x^2-1)/(x^2+1)^2)
                      + 2*T^2 * Re psi'(T*(1+i*x)/cutoff) ),   x = cutoff*tau
    D2(tau) = 4*lam*cutoff^3*tau / (1 + cutoff^2*tau^2)^2

equal to the cosine / sine transforms of J(w)*coth(w/2T) and J(w).  The
closed forms take any shape, a scalar giving a numpy scalar.  The Gibbs
state, which the Markov stroke relaxes to and a PositivityError quotes, has
one home, `gibbs_populations`.  The rate tables on a uniform time grid are

    a(tau) = -2 * int_0^tau D1(u) cos(w0 u) du
    b(tau) = -  int_0^tau [D1(u) cos(w0 u) + D2(u) sin(w0 u)] du
    A(tau) =    int_0^tau a(s) ds

where b uses the manifestly real reduction of the complex correlation
Phi = (D1 - i D2)/2 (D1 even, D2 odd); the complex form survives in the
test-suite as an oracle.

The tables are built in cache blocks (`special.CACHE_BLOCK` nodes): D1 and
the two rate integrands are filled block by block, each integrand into the
table that then takes its prefix in place, and A is taken in place over the
prefix a, so a long grid's peak memory is three tables and not the
temporaries of their products.  One blocked pass, `trig_blocks`, yields each
block's D1, D2, cos(w0 tau) and sin(w0 tau), and every fill (the rate and
flow integrands, the dump's a) iterates it.  It owns the fill's one
`special.BlockBuffers` set, in which `node_times` and the kernels (trigamma
under the noise kernel) work.  D1 depends on the bath, step and node count
alone, so a batch run's grids may share it (`noise_tables`).  A grid is its
D1, b and A, the tables the population solve and the flow prefixes read.
The node times tau, D2 and a are not kept: the dumps and the
explicit-integral oracle form what they read of them, from `node_times`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .special import BlockBuffers, cache_blocks, cumulative_simpson, trigamma_values

__all__ = [
    "BathSpec",
    "KernelGrid",
    "spectral_density",
    "noise_kernel",
    "dissipation_kernel",
    "bose_occupation",
    "gibbs_populations",
    "default_grid_step",
    "build_kernel_grid",
    "node_times",
    "trig_blocks",
    "MAX_GRID_NODES",
]

MAX_GRID_NODES = 10**7


@dataclass(frozen=True)
class BathSpec:
    """One heat bath: coupling, cutoff frequency, temperature (hbar=kB=1)."""

    coupling: float
    cutoff: float
    temperature: float

    def __post_init__(self):
        if not (math.isfinite(self.coupling) and self.coupling >= 0.0):
            raise ValueError("coupling must be finite and >= 0")
        for name in ("cutoff", "temperature"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0")


def _as_nonnegative_array(x, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0):
        raise ValueError(f"{what} must be >= 0")
    return arr


def spectral_density(omega, bath: BathSpec):
    """Ohmic spectral density lam * w * exp(-w/cutoff), for w >= 0; 0, its
    limit, where the exponential underflows to 0, even where lam * w
    overflows (inf * 0 would read nan)."""
    w = _as_nonnegative_array(omega, "omega")
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-w / bath.cutoff)
        return np.where(decay == 0.0, 0.0, bath.coupling * w * decay)[()]


def bose_occupation(omega: float, temperature: float) -> float:
    """Thermal occupation n(w) = 1 / (exp(w/T) - 1); inf, its limit, where
    w/T underflows to 0."""
    x = omega / temperature
    if x > 700.0:  # expm1 overflows; the occupation is indistinguishable from 0
        return 0.0
    if x == 0.0:
        return math.inf
    return 1.0 / math.expm1(x)


def gibbs_populations(omega: float, temperature: float) -> tuple[float, float]:
    """Gibbs (ground, excited) populations ((1 + n)/(1 + 2n), n/(1 + 2n)) of
    a qubit of frequency w in a bath at T; (1/2, 1/2), their limit, where 2n
    overflows (n itself may be inf)."""
    n = bose_occupation(omega, temperature)
    if 2.0 * n == math.inf:
        return 0.5, 0.5
    return (1.0 + n) / (1.0 + 2.0 * n), n / (1.0 + 2.0 * n)


def noise_kernel(tau, bath: BathSpec, buffers: BlockBuffers | None = None):
    """Noise kernel D1(tau); agrees with the defining cosine transform.

    The work is done in float slots 1-3 of `buffers` (a set of its own
    without them) and in trigamma's, and float slot 3 holds the result.
    Trigamma's argument is formed in trigamma's slot 0, so it copies nothing.
    """
    t = _as_nonnegative_array(tau, "tau")
    lam, cut, temp = bath.coupling, bath.cutoff, bath.temperature
    if buffers is None:
        buffers = BlockBuffers()
    n = t.size
    f1, f2, f3 = (buffers.take(slot, n) for slot in (1, 2, 3))
    x = np.multiply(cut, t.reshape(-1), out=f1)
    # T(1 + i x)/cut, in trigamma's complex slot 0 by way of its slot 1.
    z = np.multiply(1j, x, out=buffers.take(0, n, np.complex128))
    z = np.add(1.0, z, out=z)
    z = np.divide(np.multiply(temp, z, out=buffers.take(1, n, np.complex128)), cut, out=z)
    x2 = np.multiply(x, x, out=f2)
    # cut^2 (x^2 - 1)/(x^2 + 1)^2
    vacuum = np.multiply(cut * cut, np.subtract(x2, 1.0, out=f1), out=f3)
    vacuum = np.divide(vacuum, np.square(np.add(x2, 1.0, out=f1), out=f2), out=f1)
    psi = trigamma_values(z, buffers)
    d1 = np.add(vacuum, np.multiply(2.0 * temp * temp, psi.real, out=f2), out=f2)
    d1 = np.multiply(2.0 * lam, d1, out=f3)
    return d1.reshape(t.shape)[()]


def dissipation_kernel(tau, bath: BathSpec, buffers: BlockBuffers | None = None):
    """Dissipation kernel D2(tau) (odd in tau; evaluated for tau >= 0).

    The work is done in float slots 1-3 of `buffers` (a set of its own
    without them), and slot 3 holds the result.
    """
    t = _as_nonnegative_array(tau, "tau")
    lam, cut = bath.coupling, bath.cutoff
    if buffers is None:
        buffers = BlockBuffers()
    flat = t.reshape(-1)
    f1, f2, f3 = (buffers.take(slot, flat.size) for slot in (1, 2, 3))
    # 4 lam cut^3 tau / (1 + (cut tau)^2)^2
    d2 = np.multiply(4.0 * lam * cut**3, flat, out=f1)
    y = np.square(np.multiply(cut, flat, out=f2), out=f3)
    y = np.square(np.add(1.0, y, out=y), out=f2)
    d2 = np.divide(d2, y, out=f3)
    return d2.reshape(t.shape)[()]


def default_grid_step(omega0: float, cutoff: float) -> float:
    """Resolve both the qubit oscillation and the cutoff-scale structure."""
    return min(0.05, (2.0 * math.pi / omega0) / 64.0, (2.0 * math.pi / cutoff) / 64.0)


def node_times(block: slice, step: float, buffers: BlockBuffers | None = None) -> np.ndarray:
    """tau[i] = i*step at the grid nodes of `block`, in float slot 0 of
    `buffers` if given."""
    nodes = np.arange(block.start, block.stop, dtype=np.float64)
    return np.multiply(nodes, step, out=None if buffers is None else buffers.take(0, nodes.size))


def trig_blocks(bath: BathSpec, omega0: float, step: float, d1: np.ndarray, fill_noise: bool = False):
    """Per cache block of the grid whose D1 table is `d1` (filled first if
    `fill_noise`), yield (block, D1, D2, cos(omega0 t), sin(omega0 t), a free
    scratch array) at its node times t: arrays of one buffer set, which the
    next block overwrites.  Each caller loops in a function of its own, so
    that the set goes before a prefix is taken."""
    buffers = BlockBuffers()
    for block in cache_blocks(d1.shape[0]):
        t = node_times(block, step, buffers)
        if fill_noise:
            d1[block] = noise_kernel(t, bath, buffers)
        d2 = dissipation_kernel(t, bath, buffers)
        phase = np.multiply(omega0, t, out=buffers.take(1, t.size))
        cos_w = np.cos(phase, out=buffers.take(2, t.size))
        yield block, d1[block], d2, cos_w, np.sin(phase, out=t), phase


def _fill_integrands(bath: BathSpec, omega0: float, step: float, d1: np.ndarray, big_a: np.ndarray,
                     b: np.ndarray, fill_noise: bool) -> None:
    """Fill D1 (if `fill_noise`), then the integrands of a and b into `big_a`
    and `b`, one cache block at a time."""
    for block, d1_block, d2, cos_w, sin_w, scratch in trig_blocks(bath, omega0, step, d1, fill_noise):
        np.multiply(np.multiply(-2.0, d1_block, out=scratch), cos_w, out=big_a[block])
        # -(D1 cos + D2 sin), D2 sin formed in b's block.
        rate = b[block]
        np.add(np.multiply(d1_block, cos_w, out=scratch), np.multiply(d2, sin_w, out=rate), out=rate)
        np.negative(rate, out=rate)


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """Immutable kernel tables for one (bath, qubit-frequency) pair.

    The grid has n_points nodes tau[i] = i*step up to t_max.  D1 is the noise
    kernel, b the time-local rate and A the running integral of the rate a.
    Shareable read-only across workers; a stroke that owns its grid writes
    over the tables once it has read them (`sweep.stroke_tables`).
    """

    bath: BathSpec
    omega0: float
    step: float
    n_points: int
    t_max: float
    D1: np.ndarray
    b: np.ndarray
    A: np.ndarray


def build_kernel_grid(bath: BathSpec, omega0: float, t_max: float, step: float | None = None,
                      noise_tables: dict | None = None) -> KernelGrid:
    """Precompute D1, b and A on a uniform grid covering [0, t_max].

    A batch run (`sweep.run_phase`, no other caller) may pass `noise_tables`,
    its dict of read-only D1 arrays keyed by (bath, step, n_points): a build
    reads its D1 there, or stores it there once the grid is complete.
    """
    if not (math.isfinite(omega0) and omega0 > 0.0):
        raise GridError("omega0 must be finite and > 0")
    omega0 = float(omega0)
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise GridError("t_max must be finite and > 0")
    if step is None:
        step = default_grid_step(omega0, bath.cutoff)
    if not (math.isfinite(step) and step > 0.0):
        raise GridError(f"step must be finite and > 0, got {step!r}")
    if step > t_max:
        raise GridError(f"step {step:g} exceeds t_max {t_max:g}: "
                        "a stroke must span one grid step; decrease h")
    # Compared as a float, so that an infinite or huge count never reaches int().
    intervals = t_max / step - 1e-12
    if intervals > MAX_GRID_NODES - 1:
        raise GridError(f"grid would need {intervals + 1:.3g} nodes (> {MAX_GRID_NODES}); "
                        "increase step or reduce t_max")
    n = max(int(math.ceil(intervals)) + 1, 3)
    key = (bath, step, n)
    noise = None if noise_tables is None else noise_tables.get(key)

    # Extreme bath scales overflow the tables, and a tiny temperature puts the
    # trigamma argument at its pole (its square underflows to 0); that is
    # reported once, below or by trigamma, and not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Each rate's integrand is filled one cache block at a time into the
        # table that keeps its prefix; A then replaces the prefix a.
        d1 = np.empty(n) if noise is None else noise
        big_a, b = np.empty(n), np.empty(n)
        _fill_integrands(bath, omega0, step, d1, big_a, b, noise is None)
        cumulative_simpson(big_a, step)
        cumulative_simpson(b, step)
        cumulative_simpson(big_a, step)
    # Any non-finite D1 or D2 value spreads into b, and D1's into A too.
    if not (np.isfinite(b).all() and np.isfinite(big_a).all()):
        raise GridError("kernel tables are not finite; the bath scales overflow float64")

    for arr in (d1, b, big_a):
        arr.setflags(write=False)
    if noise_tables is not None:
        noise_tables[key] = d1
    return KernelGrid(bath=bath, omega0=omega0, step=float(step), n_points=n,
                      t_max=(n - 1) * float(step), D1=d1, b=b, A=big_a)
