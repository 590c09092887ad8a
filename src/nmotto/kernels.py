"""Bath correlation kernels and the time-local rate tables.

For an Ohmic bath J(w) = lam * w * exp(-w/cutoff) at temperature T the two
real correlation kernels have closed forms:

    D1(tau) = 2*lam*( cutoff^2 * ((x^2-1)/(x^2+1)^2)
                      + 2*T^2 * Re psi'(T*(1+i*x)/cutoff) ),   x = cutoff*tau
    D2(tau) = 4*lam*cutoff^3*tau / (1 + cutoff^2*tau^2)^2

equal to the cosine / sine transforms of J(w)*coth(w/2T) and J(w).  The
rate tables on a uniform time grid are

    a(tau) = -2 * int_0^tau D1(u) cos(w0 u) du
    b(tau) = -  int_0^tau [D1(u) cos(w0 u) + D2(u) sin(w0 u)] du
    A(tau) =    int_0^tau a(s) ds

where b uses the manifestly real reduction of the complex correlation
Phi = (D1 - i D2)/2 (D1 even, D2 odd); the complex form survives in the
test-suite as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .special import cumulative_simpson, trigamma_values

__all__ = [
    "BathSpec",
    "KernelGrid",
    "spectral_density",
    "noise_kernel",
    "dissipation_kernel",
    "bose_occupation",
    "default_grid_step",
    "build_kernel_grid",
    "MAX_GRID_NODES",
]

MAX_GRID_NODES = 10**7

_LABELS = ("hot", "cold")


@dataclass(frozen=True)
class BathSpec:
    """One heat bath: coupling, cutoff frequency, temperature (hbar=kB=1)."""

    label: str
    coupling: float
    cutoff: float
    temperature: float

    def __post_init__(self):
        if self.label not in _LABELS:
            raise ValueError(f"bath label must be one of {_LABELS}, got {self.label!r}")
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
    """Ohmic spectral density lam * w * exp(-w/cutoff), for w >= 0."""
    w = _as_nonnegative_array(omega, "omega")
    out = bath.coupling * w * np.exp(-w / bath.cutoff)
    return float(out) if np.isscalar(omega) else out


def bose_occupation(omega: float, temperature: float) -> float:
    """Thermal occupation n(w) = 1 / (exp(w/T) - 1)."""
    x = omega / temperature
    if x > 700.0:  # expm1 overflows; the occupation is indistinguishable from 0
        return 0.0
    return 1.0 / math.expm1(x)


def noise_kernel(tau, bath: BathSpec):
    """Noise kernel D1(tau); agrees with the defining cosine transform."""
    t = _as_nonnegative_array(tau, "tau")
    lam, cut, temp = bath.coupling, bath.cutoff, bath.temperature
    x = cut * t
    x2 = x * x
    vacuum = cut * cut * (x2 - 1.0) / (x2 + 1.0) ** 2
    psi = trigamma_values(temp * (1.0 + 1j * x) / cut)
    out = 2.0 * lam * (vacuum + 2.0 * temp * temp * psi.real)
    return float(out) if np.isscalar(tau) else out


def dissipation_kernel(tau, bath: BathSpec):
    """Dissipation kernel D2(tau) (odd in tau; evaluated for tau >= 0)."""
    t = _as_nonnegative_array(tau, "tau")
    lam, cut = bath.coupling, bath.cutoff
    out = 4.0 * lam * cut**3 * t / (1.0 + (cut * t) ** 2) ** 2
    return float(out) if np.isscalar(tau) else out


def default_grid_step(omega0: float, cutoff: float) -> float:
    """Resolve both the qubit oscillation and the cutoff-scale structure."""
    return min(0.05, (2.0 * math.pi / omega0) / 64.0, (2.0 * math.pi / cutoff) / 64.0)


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """Immutable kernel tables for one (bath, qubit-frequency) pair.

    tau[i] = i*step; D1, D2 are the kernels, a and b the time-local rates,
    A the running integral of a.  Shareable read-only across workers.
    """

    bath: BathSpec
    omega0: float
    step: float
    tau: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    a: np.ndarray
    b: np.ndarray
    A: np.ndarray

    @property
    def n_points(self) -> int:
        return self.tau.shape[0]

    @property
    def t_max(self) -> float:
        return self.tau.item(-1)


def build_kernel_grid(bath: BathSpec, omega0: float, t_max: float, step: float | None = None) -> KernelGrid:
    """Precompute D1, D2, a, b and A on a uniform grid covering [0, t_max]."""
    if not (math.isfinite(omega0) and omega0 > 0.0):
        raise GridError("omega0 must be finite and > 0")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise GridError("t_max must be finite and > 0")
    if step is None:
        step = default_grid_step(omega0, bath.cutoff)
    if not (math.isfinite(step) and 0.0 < step <= t_max):
        raise GridError("step must satisfy 0 < step <= t_max")
    # Compared as a float, so that an infinite or huge count never reaches int().
    intervals = t_max / step - 1e-12
    if intervals > MAX_GRID_NODES - 1:
        raise GridError(f"grid would need {intervals + 1:.3g} nodes (> {MAX_GRID_NODES}); "
                        "increase step or reduce t_max")
    n = max(int(math.ceil(intervals)) + 1, 3)

    # Extreme bath scales overflow the tables; that is reported once, below,
    # and not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        tau = np.arange(n, dtype=np.float64) * step
        d1 = noise_kernel(tau, bath)
        d2 = dissipation_kernel(tau, bath)
        cos_w = np.cos(omega0 * tau)
        sin_w = np.sin(omega0 * tau)
        a = cumulative_simpson(-2.0 * d1 * cos_w, step)
        b = cumulative_simpson(-(d1 * cos_w + d2 * sin_w), step)
        big_a = cumulative_simpson(a, step)
    # Any non-finite D1 or D2 value spreads into b, and D1's into A too.
    if not (np.isfinite(b).all() and np.isfinite(big_a).all()):
        raise GridError("kernel tables are not finite; the bath scales overflow float64")

    for arr in (tau, d1, d2, a, b, big_a):
        arr.setflags(write=False)
    return KernelGrid(bath=bath, omega0=float(omega0), step=float(step),
                      tau=tau, D1=d1, D2=d2, a=a, b=b, A=big_a)
