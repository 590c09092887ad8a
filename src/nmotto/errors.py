"""Exception hierarchy shared across the package.

Every error the package raises on purpose derives from NmottoError: a
trigamma argument outside its domain, a rejected grid, a population outside
[0, 1], a singular cycle map and a bad configuration.
"""


class NmottoError(Exception):
    """Base class for all package-specific errors."""


class PoleError(NmottoError, ValueError):
    """Trigamma argument outside Re z > 0, or a non-finite argument or value."""


class GridError(NmottoError, ValueError):
    """Kernel-grid construction rejected its step or size."""


class PositivityError(NmottoError, RuntimeError):
    """A propagated population left [0, 1] beyond tolerance.

    `excursion` is how far it went outside [0, 1] at its peak, `tau` the
    stroke time of that peak and `gibbs` the bath's Gibbs excited population
    n/(1 + 2n) at the stroke's qubit frequency, where 1 - rho00 settles.
    """

    def __init__(self, excursion: float, tau: float, gibbs: float):
        super().__init__(excursion, tau, gibbs)
        self.excursion, self.tau, self.gibbs = excursion, tau, gibbs

    def __str__(self) -> str:
        return (f"population left [0, 1] by {self.excursion:.4e} at tau={self.tau:g}"
                f" (bath Gibbs excited population {self.gibbs:.4e})")


class SingularMapError(NmottoError, RuntimeError):
    """The one-cycle population map has no unique fixed point."""


class ConfigError(NmottoError, ValueError):
    """A run configuration failed validation; message names the field."""
