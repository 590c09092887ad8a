"""Reference implementations, written out on their own, that the tests
compare the package against."""

import math

import nmotto as nm


def markov_population(initial_rho00, bath, omega, t):
    """Ground population under the Born-Markov reference dynamics: it relaxes
    at the GKSL rate to the stationary (1 + n)/(1 + 2n), which is 1/2 where
    2n overflows (n itself may be inf)."""
    n = nm.bose_occupation(omega, bath.temperature)
    stationary = 0.5 if 2.0 * n == math.inf else (1.0 + n) / (1.0 + 2.0 * n)
    return stationary + (initial_rho00 - stationary) * math.exp(-nm.markov_rate(bath, omega) * t)
