"""Measurement-based work extraction on the system-clock-storage space.

The paper's measurement model, which the tests use as an oracle for the
report's adiabatic work columns: quenching the limit cycle's diagonal qubit
into the clock and storage and reading the storage gives W_adiab_h (expansion)
and W_adiab_c (compression) as its mean.  No CLI run reads it.

Basis order |s> x |c> x |w> with s, c, w in {0, 1}, index 4s + 2c + w.
The clock selects which qubit Hamiltonian is active (c=0 before the quench,
c=1 after), the two-level storage receives the energy difference, and the
quench unitary is an energy-conserving involution.  The compression stroke
uses the mirrored protocol: storage prepared in |1>, unitary conjugated by
the storage bit flip, so the commutation with the swapped Hamiltonian holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DIM = 8
EXPANSION = "expansion"
COMPRESSION = "compression"

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGEN_TOL = 1e-10


# The system, clock and storage bits of every basis index.
_I = np.arange(DIM)
_S = _I >> 2
_C = (_I >> 1) & 1
_W = _I & 1

# The expansion quench as an involution of basis indices: at s=0 the clock
# flips; at s=1, |100> <-> |111> books omega_h - omega_c in the storage and
# |101>, |110> stay.
_EXPANSION_PERM = _I ^ np.where(_S == 0, 0b010, np.where(_C == _W, 0b011, 0))


def _index(s: int, c: int, w: int) -> int:
    return 4 * s + 2 * c + w


def _pre_quench(rho11: float, rho00: float, w0: int) -> np.ndarray:
    """Diagonal qubit state, clock in |0>, storage in level w0."""
    rho = np.zeros((DIM, DIM), dtype=np.complex128)
    rho[_index(0, 0, w0), _index(0, 0, w0)] = rho00
    rho[_index(1, 0, w0), _index(1, 0, w0)] = rho11
    return rho


@dataclass(frozen=True)
class TripartiteHamiltonian:
    """Diagonal total Hamiltonian, split into system-clock and storage parts."""

    omega_h: float
    omega_c: float
    direction: str
    system_clock: np.ndarray
    storage: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return self.system_clock + self.storage

    @property
    def storage_gap(self) -> float:
        return self.omega_h - self.omega_c

    @property
    def initial_storage_level(self) -> int:
        return 0 if self.direction == EXPANSION else 1


@dataclass(frozen=True)
class TripartiteState:
    """8x8 density matrix of system, clock and storage."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (DIM, DIM):
            raise ValueError(f"state must be {DIM}x{DIM}")
        # A non-finite entry is rejected before any arithmetic on it: inf - inf
        # would warn in the Hermiticity check.
        if not np.isfinite(m).all():
            raise ValueError("state entries must be finite")
        if not np.max(np.abs(m - m.conj().T)) <= _HERMITICITY_TOL:
            raise ValueError("state is not Hermitian")
        if not (abs(np.trace(m).real - 1.0) <= _TRACE_TOL and abs(np.trace(m).imag) <= _TRACE_TOL):
            raise ValueError("state trace must be 1")
        if np.linalg.eigvalsh(m).min() < -_EIGEN_TOL:
            raise ValueError("state is not positive semidefinite")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class WorkOutcome:
    """Storage-measurement record: (work, probability) pairs and post states.

    Zero-probability branches keep their (w, 0) entry but contribute no
    post-measurement state.
    """

    outcomes: tuple[tuple[float, float], ...]
    post_states: tuple[TripartiteState, ...]

    @property
    def expected_work(self) -> float:
        return sum(w * p for w, p in self.outcomes)


def build_hamiltonian(omega_h: float, omega_c: float, direction: str = EXPANSION) -> TripartiteHamiltonian:
    """Assemble the diagonal clock-conditioned Hamiltonian plus storage term."""
    if not (omega_h > omega_c > 0.0 and math.isfinite(omega_h)):
        raise ValueError("frequencies must satisfy omega_h > omega_c > 0")
    if direction not in (EXPANSION, COMPRESSION):
        raise ValueError(f"direction must be {EXPANSION!r} or {COMPRESSION!r}")
    before, after = (omega_h, omega_c) if direction == EXPANSION else (omega_c, omega_h)
    sc = _S * np.where(_C == 0, float(before), float(after))
    st = float(omega_h - omega_c) * _W
    return TripartiteHamiltonian(omega_h=float(omega_h), omega_c=float(omega_c),
                                 direction=direction,
                                 system_clock=np.diag(sc), storage=np.diag(st))


def build_unitary(direction: str = EXPANSION) -> np.ndarray:
    """The quenching involution: clock flips, storage books the energy.

    Expansion pairs: |000><010|+h.c., |100><111|+h.c., |001><011|+h.c.,
    with |110> and |101> fixed.  Compression is the storage-flipped mirror.
    """
    if direction == EXPANSION:
        return np.eye(DIM)[_EXPANSION_PERM]
    if direction == COMPRESSION:
        return np.eye(DIM)[_EXPANSION_PERM[_I ^ 1] ^ 1]
    raise ValueError(f"direction must be {EXPANSION!r} or {COMPRESSION!r}")


def _quench(unitary: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return unitary @ rho @ unitary.conj().T


def _branches(rho: np.ndarray, hamiltonian: TripartiteHamiltonian) -> list[tuple[float, float, np.ndarray]]:
    """(work, probability, unnormalised branch) of each storage outcome w = 0, 1.

    The one storage projection: measure_storage and both verifier levels read it.
    """
    gap, w0 = hamiltonian.storage_gap, hamiltonian.initial_storage_level
    branches = []
    for w in (0, 1):
        proj = np.diag((_W == w).astype(float))
        branch = proj @ rho @ proj
        branches.append((gap * w - gap * w0, float(np.trace(branch).real), branch))
    return branches


def apply_extraction(rho11: float, rho00: float, hamiltonian: TripartiteHamiltonian) -> TripartiteState:
    """Quench a diagonal qubit state through the extraction unitary.

    The qubit enters with populations (rho11, rho00), the clock in |0> and
    the storage in its protocol level; coherences are assumed projected away.
    """
    if not abs(rho11 + rho00 - 1.0) <= _TRACE_TOL:
        raise ValueError("qubit populations must sum to 1")
    if not (rho11 >= -_TRACE_TOL and rho00 >= -_TRACE_TOL):
        raise ValueError("qubit populations must be nonnegative")
    rho = _pre_quench(rho11, rho00, hamiltonian.initial_storage_level)
    return TripartiteState(_quench(build_unitary(hamiltonian.direction), rho))


def measure_storage(state: TripartiteState, hamiltonian: TripartiteHamiltonian) -> WorkOutcome:
    """Projective storage measurement; work is the storage-energy increase."""
    outcomes, posts = [], []
    for work, p, branch in _branches(state.matrix, hamiltonian):
        outcomes.append((work, p))
        if p > 1e-15:
            posts.append(TripartiteState(branch / p))
    return WorkOutcome(outcomes=tuple(outcomes), post_states=tuple(posts))


@dataclass(frozen=True)
class ConservationReport:
    """Verifier output; violations are reported, never raised."""

    commutator_max: float
    level1_max_residual: float
    level4_max_residual: float
    violations: tuple[str, ...]

    @property
    def satisfied(self) -> bool:
        return not self.violations


# The verifier's qubit inputs; rho11 = 0 and 1 are the energy eigenstates.
_RHO11_INPUTS = (0.0, 0.3, 0.5, 1.0)


def verify_conservation(hamiltonian: TripartiteHamiltonian, unitary: np.ndarray) -> ConservationReport:
    """Check [U, H] = 0, the mean energy balance, and per-outcome support.

    Each input is quenched with `unitary` itself.  Level 1, every input:
    initial system-clock energy equals mean extracted work plus the final
    system-clock energy.  Level 4, energy eigenstates of energy h_x: for each
    realised outcome j, the post-measurement state is supported on the
    system-clock eigenspace of eigenvalue h_x - w_j.  A non-unitary
    `unitary` shows as violations, not as an exception.
    """
    violations = []
    h_full = hamiltonian.matrix
    comm = float(np.max(np.abs(unitary @ h_full - h_full @ unitary)))
    if comm >= 1e-13:
        violations.append(f"[U, H] != 0 (max |entry| = {comm:.3e})")

    h_sc = hamiltonian.system_clock
    sc_diag = np.diag(h_sc).real
    level1_max = level4_max = 0.0
    for rho11 in _RHO11_INPUTS:
        before = _pre_quench(rho11, 1.0 - rho11, hamiltonian.initial_storage_level)
        after = _quench(unitary, before)
        branches = _branches(after, hamiltonian)
        e_before = float(np.trace(h_sc @ before).real)
        e_after = float(np.trace(h_sc @ after).real)
        residual = abs(e_before - (sum(work * p for work, p, _ in branches) + e_after))
        level1_max = max(level1_max, residual)
        if residual >= 1e-12:
            violations.append(f"level-1 balance off by {residual:.3e} at rho11={rho11:g}")
        if rho11 not in (0.0, 1.0):
            continue
        for w, (work, p, branch) in enumerate(branches):
            if p <= 1e-15:
                continue
            support = np.diag((np.abs(sc_diag - (e_before - work)) < 1e-9).astype(float))
            residual = float(np.max(np.abs(branch - support @ branch @ support)))
            level4_max = max(level4_max, residual)
            if residual > 0.0:
                violations.append(f"level-4 support broken for input s={rho11:g}, outcome w={w} "
                                  f"(residual {residual:.3e})")
    return ConservationReport(commutator_max=comm, level1_max_residual=level1_max,
                              level4_max_residual=level4_max, violations=tuple(violations))
