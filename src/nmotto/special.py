"""Numerical primitives: complex trigamma and Simpson quadrature.

Trigamma uses the classic scheme: upward recurrence psi'(z) = psi'(z+1) + 1/z^2
until Re z >= 10, then the asymptotic series with Bernoulli numbers through
B12.  Both are vectorised numpy.  Quadrature is composite Simpson; the
cumulative-prefix variant returns the running integral at every node of a
uniform grid and is shared by the kernel tables and the stroke propagation.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import PoleError, QuadratureError

__all__ = [
    "trigamma",
    "trigamma_values",
    "simpson",
    "cumulative_simpson",
    "integrate_finite",
    "integrate_semi_infinite",
]

# Bernoulli numbers B2..B12 for the asymptotic tail of psi'.
_B2 = 1.0 / 6.0
_B4 = -1.0 / 30.0
_B6 = 1.0 / 42.0
_B8 = -1.0 / 30.0
_B10 = 5.0 / 66.0
_B12 = -691.0 / 2730.0

_ASYMPTOTIC_RE = 10.0
_POLE_TOL = 1e-12


def trigamma_values(z) -> np.ndarray:
    """psi'(z) = sum_{k>=0} 1/(z+k)^2 for an array of complex arguments."""
    zc = np.asarray(z, dtype=np.complex128)
    flat = np.ascontiguousarray(zc.ravel())
    nearest = np.rint(flat.real)
    at_pole = (nearest <= 0.0) & (np.abs(flat - nearest) < _POLE_TOL)
    if at_pole.any():
        bad = flat[at_pole][0]
        raise PoleError(f"trigamma pole at z = {bad} (nonpositive integer)")
    # Upward recurrence until Re w >= 10, then the asymptotic series.
    w = flat.copy()
    acc = np.zeros_like(w)
    active = w.real < _ASYMPTOTIC_RE
    while active.any():
        zw = w[active]
        acc[active] += 1.0 / (zw * zw)
        w[active] = zw + 1.0
        active = w.real < _ASYMPTOTIC_RE
    r = 1.0 / w
    r2 = r * r
    poly = _B12
    poly = _B10 + poly * r2
    poly = _B8 + poly * r2
    poly = _B6 + poly * r2
    poly = _B4 + poly * r2
    poly = _B2 + poly * r2
    out = acc + r + 0.5 * r2 + r * r2 * poly
    if not np.all(np.isfinite(out.view(np.float64))):
        raise PoleError("trigamma produced a non-finite value; argument too close to a pole")
    return out.reshape(zc.shape)


def trigamma(z) -> complex:
    """psi'(z) for a single complex argument, ~1e-12 relative accuracy."""
    return complex(trigamma_values(np.array([z], dtype=np.complex128))[0])


def _require_finite(y: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(y)):
        raise QuadratureError(f"{what} is not finite on the integration range")


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


_MIN_PANELS = 16
_MAX_PANELS = 1 << 23


def integrate_finite(f: Callable, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive composite Simpson of a vectorised integrand on [a, b].

    Panel count doubles until the Richardson estimate |I_2n - I_n|/15 drops
    below `tol` (absolute).  Previously evaluated nodes are reused; only the
    new midpoints are sampled at each refinement.  The cumulative-prefix
    companion for pre-sampled grids is `cumulative_simpson`.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0

    n = _MIN_PANELS
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f(x), dtype=np.float64)
    _require_finite(y, "integrand")
    ends = float(y[0] + y[-1])
    interior = float(y[1:-1].sum())
    odd = float(y[1:-1:2].sum())
    h = (b - a) / n
    estimate = h / 3.0 * (ends + 4.0 * odd + 2.0 * (interior - odd))

    while n < _MAX_PANELS:
        mids = a + (b - a) * (2.0 * np.arange(n) + 1.0) / (2.0 * n)
        ym = np.asarray(f(mids), dtype=np.float64)
        _require_finite(ym, "integrand")
        odd = float(ym.sum())
        interior += odd
        n *= 2
        h = (b - a) / n
        refined = h / 3.0 * (ends + 4.0 * odd + 2.0 * (interior - odd))
        if abs(refined - estimate) <= 15.0 * tol:
            return refined
        estimate = refined

    raise QuadratureError(
        f"integrate_finite did not reach tol={tol:g} on [{a:g}, {b:g}] within {_MAX_PANELS} panels"
    )


def integrate_semi_infinite(f: Callable, decay_scale: float, tol: float = 1e-8) -> float:
    """Integral of a decaying integrand on [0, inf).

    Truncates where the sampled tail bound |f(L)|*decay_scale falls below
    tol/2, integrates on [0, L], then doubles L until the result is stable.
    The integrand must decay at least exponentially on the scale given.
    """
    if not decay_scale > 0.0:
        raise ValueError("decay_scale must be positive")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    length = decay_scale * max(10.0, math.log(1.0 / tol))
    for _ in range(64):
        tail = abs(float(np.asarray(f(np.array([length])), dtype=np.float64)[0]))
        if tail * decay_scale <= 0.5 * tol:
            break
        length *= 2.0
    else:
        raise QuadratureError("integrand does not decay on the supplied scale")

    previous = integrate_finite(f, 0.0, length, tol=0.25 * tol)
    for _ in range(12):
        length *= 2.0
        current = integrate_finite(f, 0.0, length, tol=0.25 * tol)
        if abs(current - previous) <= 0.5 * tol:
            return current
        previous = current
    raise QuadratureError(f"semi-infinite integral did not stabilise to tol={tol:g}")
