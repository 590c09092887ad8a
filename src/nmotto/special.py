"""Numerical primitives: complex trigamma and Simpson quadrature.

Trigamma treats every point on its own.  A point with Re z < 0 is reflected
to 1 - z through psi'(1-z) + psi'(z) = pi^2/sin^2(pi z); a point with
|z| < 10 takes upward recurrence steps psi'(z) = psi'(z+1) + 1/z^2 until
|z| >= 10, at most 10 of them; every point then takes the asymptotic series
with Bernoulli numbers through B12 (Abramowitz & Stegun 6.4.12).  A value
thus never depends on the other points of its batch.  Quadrature is
composite Simpson; the cumulative-prefix variant returns the running
integral at every node of a uniform grid and is shared by the kernel tables
and the stroke propagation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PoleError

__all__ = [
    "trigamma",
    "trigamma_values",
    "simpson",
    "cumulative_simpson",
]

# Bernoulli numbers B2..B12 for the asymptotic tail of psi'.
_B2 = 1.0 / 6.0
_B4 = -1.0 / 30.0
_B6 = 1.0 / 42.0
_B8 = -1.0 / 30.0
_B10 = 5.0 / 66.0
_B12 = -691.0 / 2730.0

_ASYMPTOTIC_ABS = 10.0
_POLE_TOL = 1e-12


def _reflection(z: np.ndarray, nearest: np.ndarray) -> np.ndarray:
    """pi^2/sin^2(pi z) as -4 pi^2 q/(q-1)^2 with q = exp(2 pi i z').

    z' is z shifted by the integer `nearest` and taken in the upper
    half-plane, so |q| <= 1 and nothing overflows for any finite z; expm1
    keeps q - 1 accurate next to a pole.
    """
    arg = 2.0 * math.pi * (1j * (z.real - nearest) - np.abs(z.imag))
    value = -4.0 * math.pi**2 * np.exp(arg) / np.expm1(arg) ** 2
    return np.where(z.imag < 0.0, value.conj(), value)


def trigamma_values(z) -> np.ndarray:
    """psi'(z) = sum_{k>=0} 1/(z+k)^2 for an array of complex arguments.

    Each element is computed from its own argument alone, with at most 10
    recurrence steps, so a batch gives the same bits as per-point calls.
    """
    zc = np.asarray(z, dtype=np.complex128)
    flat = np.ascontiguousarray(zc.ravel())
    if not np.isfinite(flat).all():
        raise PoleError("trigamma arguments must be finite")
    nearest = np.rint(flat.real)
    at_pole = (nearest <= 0.0) & (np.abs(flat - nearest) < _POLE_TOL)
    if at_pole.any():
        bad = flat[at_pole][0]
        raise PoleError(f"trigamma pole at z = {bad} (nonpositive integer)")
    left = np.flatnonzero(flat.real < 0.0)
    w = flat.copy()
    w[left] = 1.0 - flat[left]
    near = np.flatnonzero(np.abs(w) < _ASYMPTOTIC_ABS)
    wn = w[near]
    shift = np.zeros_like(wn)
    # After reflection Re w >= 0, so ten steps take every point to |w| >= 10.
    for _ in range(int(_ASYMPTOTIC_ABS)):
        below = np.abs(wn) < _ASYMPTOTIC_ABS
        wb = wn[below]
        shift[below] += 1.0 / (wb * wb)
        wn[below] = wb + 1.0
    w[near] = wn
    # Out-of-place products only: numpy rounds an in-place complex multiply
    # of a one-element array differently, which would break batch invariance.
    # Each full-length temporary is dropped once spent, to bound peak memory.
    r = 1.0 / w
    del w
    r2 = r * r
    poly = _B12 * r2
    for b in (_B10, _B8, _B6, _B4):
        poly += b
        poly = poly * r2
    poly += _B2
    out = poly * r2 * r
    del poly
    out += 0.5 * r2
    out += r
    out[near] += shift
    out[left] = _reflection(flat[left], nearest[left]) - out[left]
    if not np.all(np.isfinite(out.view(np.float64))):
        raise PoleError("trigamma produced a non-finite value; argument too close to a pole")
    return out.reshape(zc.shape)


def trigamma(z) -> complex:
    """psi'(z) for a single complex argument.

    Within 1.1e-14 relative of mpmath on kernel-grid arguments and random
    points with Re z > 0 (the series truncation at |z| = 10 sets it).
    """
    return complex(trigamma_values(np.array([z], dtype=np.complex128))[0])


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


def cumulative_simpson(y, step: float) -> np.ndarray:
    """Running integral of uniformly sampled values at every grid node.

    Interior pairs integrate the local quadratic interpolant, so the value
    at even nodes coincides with composite Simpson; out[0] is 0.
    """
    y = np.ascontiguousarray(y)
    step = float(step)
    out = np.zeros_like(y)
    n = y.shape[0]
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * step * (y[0] + y[1])
        return out
    npairs = (n - 1) // 2
    y0 = y[0 : 2 * npairs - 1 : 2]
    y1 = y[1 : 2 * npairs : 2]
    y2 = y[2 : 2 * npairs + 1 : 2]
    pair = step / 3.0 * (y0 + 4.0 * y1 + y2)
    even = np.empty(npairs + 1, dtype=y.dtype)
    even[0] = 0.0
    np.cumsum(pair, out=even[1:])
    out[0 : 2 * npairs + 1 : 2] = even
    # Odd nodes integrate the backward-looking quadratic (forward at node 1,
    # which has no left neighbour), matching the one-shot rule's tail so the
    # prefix at any node equals the truncated composite rule.
    out[1] = step / 12.0 * (5.0 * y[0] + 8.0 * y[1] - y[2])
    if npairs > 1:
        out[3 : 2 * npairs : 2] = even[1:-1] + step / 12.0 * (
            -y[1 : 2 * npairs - 2 : 2] + 8.0 * y[2 : 2 * npairs - 1 : 2] + 5.0 * y[3 : 2 * npairs : 2]
        )
    if (n - 1) % 2 == 1:
        out[n - 1] = out[n - 2] + step / 12.0 * (-y[n - 3] + 8.0 * y[n - 2] + 5.0 * y[n - 1])
    return out
