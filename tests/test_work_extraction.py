import numpy as np
import pytest

import nmotto as nm

import work_extraction as we
from work_extraction import DIM, _index


def _basis_matrix(s, c, w):
    m = np.zeros((DIM, DIM), dtype=np.complex128)
    i = _index(s, c, w)
    m[i, i] = 1.0
    return m


class TestHamiltonian:
    def test_diagonal_entries_expansion(self):
        h = we.build_hamiltonian(1.0, 0.5, we.EXPANSION)
        d = np.diag(h.matrix)
        assert d[_index(0, 0, 0)] == 0.0
        assert d[_index(1, 0, 0)] == 1.0          # excited qubit, clock 0
        assert d[_index(0, 1, 1)] == 0.5          # storage quantum only
        assert d[_index(1, 1, 0)] == 0.5          # excited qubit, clock 1
        assert d[_index(1, 1, 1)] == 1.0

    def test_compression_swaps_clock_frequencies(self):
        h = we.build_hamiltonian(1.0, 0.5, we.COMPRESSION)
        d = np.diag(h.matrix)
        assert d[_index(1, 0, 0)] == 0.5
        assert d[_index(1, 1, 0)] == 1.0

    def test_frequency_ordering_enforced(self):
        with pytest.raises(ValueError):
            we.build_hamiltonian(0.5, 1.0)
        with pytest.raises(ValueError):
            we.build_hamiltonian(1.0, -0.1)
        with pytest.raises(ValueError, match="^frequencies must satisfy omega_h > omega_c > 0$"):
            we.build_hamiltonian(float("inf"), 0.5)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="^direction must be 'expansion' or 'compression'$"):
            we.build_hamiltonian(1.0, 0.5, "sideways")


class TestUnitary:
    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="^direction must be 'expansion' or 'compression'$"):
            we.build_unitary("sideways")
    def test_is_unitary_involution(self):
        for direction in (we.EXPANSION, we.COMPRESSION):
            u = we.build_unitary(direction)
            assert np.array_equal(u @ u.T, np.eye(DIM))
            assert np.array_equal(u @ u, np.eye(DIM))

    def test_expansion_dyads(self):
        u = we.build_unitary(we.EXPANSION)
        assert u[_index(0, 1, 0), _index(0, 0, 0)] == 1.0   # |010><000|
        assert u[_index(1, 1, 0), _index(1, 1, 0)] == 1.0   # |110><110|
        assert u[_index(1, 1, 1), _index(1, 0, 0)] == 1.0   # |111><100|

    def test_commutes_with_hamiltonian_both_directions(self):
        for direction in (we.EXPANSION, we.COMPRESSION):
            h = we.build_hamiltonian(1.3, 0.4, direction)
            u = we.build_unitary(direction)
            assert np.max(np.abs(u @ h.matrix - h.matrix @ u)) < 1e-13


class TestExtraction:
    def test_pure_ground_state(self):
        h = we.build_hamiltonian(1.0, 0.5)
        state = we.apply_extraction(0.0, 1.0, h)
        assert np.max(np.abs(state.matrix - _basis_matrix(0, 1, 0))) == 0.0

    def test_pure_excited_state(self):
        h = we.build_hamiltonian(1.0, 0.5)
        state = we.apply_extraction(1.0, 0.0, h)
        assert np.max(np.abs(state.matrix - _basis_matrix(1, 1, 1))) == 0.0

    def test_mixed_state_lands_on_two_diagonals(self):
        h = we.build_hamiltonian(1.0, 0.5)
        state = we.apply_extraction(0.3, 0.7, h)
        diag = np.real(np.diag(state.matrix))
        assert diag[_index(0, 1, 0)] == pytest.approx(0.7)
        assert diag[_index(1, 1, 1)] == pytest.approx(0.3)
        off = state.matrix - np.diag(np.diag(state.matrix))
        assert np.max(np.abs(off)) == 0.0
        assert np.count_nonzero(np.abs(diag) > 1e-15) == 2

    def test_normalization_enforced(self):
        h = we.build_hamiltonian(1.0, 0.5)
        with pytest.raises(ValueError):
            we.apply_extraction(0.6, 0.6, h)
        with pytest.raises(ValueError, match="^qubit populations must sum to 1$"):
            we.apply_extraction(float("nan"), 0.5, h)

    def test_negative_population_rejected(self):
        # populations summing to 1 with one negative would quench to a
        # state that is not positive semidefinite
        h = we.build_hamiltonian(1.0, 0.5)
        with pytest.raises(ValueError, match="^qubit populations must be nonnegative$"):
            we.apply_extraction(1.5, -0.5, h)


class TestMeasurement:
    def test_outcome_table(self):
        h = we.build_hamiltonian(1.0, 0.5)
        out = we.measure_storage(we.apply_extraction(0.3, 0.7, h), h)
        assert out.outcomes == ((0.0, pytest.approx(0.7)), (0.5, pytest.approx(0.3)))
        assert out.expected_work == pytest.approx(0.15)

    def test_deterministic_when_ground(self):
        h = we.build_hamiltonian(1.0, 0.5)
        out = we.measure_storage(we.apply_extraction(0.0, 1.0, h), h)
        assert out.outcomes[0] == (0.0, pytest.approx(1.0))
        assert out.outcomes[1][1] == pytest.approx(0.0)
        assert len(out.post_states) == 1   # zero-probability branch omitted

    def test_probabilities_normalized_random_states(self):
        rng = np.random.default_rng(8)
        h = we.build_hamiltonian(1.0, 0.5)
        for _ in range(25):
            r11 = float(rng.uniform(0.0, 1.0))
            out = we.measure_storage(we.apply_extraction(r11, 1.0 - r11, h), h)
            probs = [p for _, p in out.outcomes]
            assert all(p >= 0.0 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_expected_work_closed_form_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            omega_c = float(rng.uniform(0.1, 2.0))
            omega_h = omega_c + float(rng.uniform(0.05, 2.0))
            r11 = float(rng.uniform(0.0, 1.0))
            h = we.build_hamiltonian(omega_h, omega_c)
            out = we.measure_storage(we.apply_extraction(r11, 1.0 - r11, h), h)
            assert abs(out.expected_work - r11 * (omega_h - omega_c)) < 1e-13

    def test_compression_reverses_the_flow(self):
        h = we.build_hamiltonian(1.0, 0.5, we.COMPRESSION)
        out = we.measure_storage(we.apply_extraction(0.3, 0.7, h), h)
        assert out.expected_work == pytest.approx(-0.15)


class TestConservationVerifier:
    def test_clean_protocol_passes(self):
        h = we.build_hamiltonian(1.0, 0.5)
        report = we.verify_conservation(h, we.build_unitary())
        assert report.satisfied
        assert report.commutator_max < 1e-13
        assert report.level1_max_residual < 1e-12
        assert report.level4_max_residual == 0.0

    def test_level1_arithmetic_example(self):
        # rho11 = 0.3, omega_h = 1, omega_c = 0.5:
        # initial 0.3, work 0.15, final 0.15
        h = we.build_hamiltonian(1.0, 0.5)
        state = we.apply_extraction(0.3, 0.7, h)
        out = we.measure_storage(state, h)
        initial = 0.3 * 1.0
        final = float(np.trace(h.system_clock @ state.matrix).real)
        assert final == pytest.approx(0.15)
        assert initial == pytest.approx(out.expected_work + final, abs=1e-12)

    def test_energy_violating_unitary_reported(self):
        h = we.build_hamiltonian(1.0, 0.5)
        bad = np.eye(DIM)
        i, j = _index(0, 0, 0), _index(1, 0, 0)    # swap |000> <-> |100>
        bad[i, i] = bad[j, j] = 0.0
        bad[i, j] = bad[j, i] = 1.0
        report = we.verify_conservation(h, bad)
        assert not report.satisfied
        assert report.commutator_max > 0.1

    def test_compression_protocol_passes(self):
        h = we.build_hamiltonian(1.0, 0.5, we.COMPRESSION)
        report = we.verify_conservation(h, we.build_unitary(we.COMPRESSION))
        assert report.satisfied


class TestStateValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="^state must be 8x8$"):
            we.TripartiteState(np.eye(2) / 2.0)
    def test_rejects_non_hermitian(self):
        m = np.zeros((DIM, DIM), dtype=np.complex128)
        m[0, 0] = 1.0
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            we.TripartiteState(m)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", ["one", "all"])
    def test_rejects_non_finite_entries(self, entry, where):
        # inf at [0, 0] alone makes inf - inf in `m - m.conj().T`, a numpy
        # RuntimeWarning (an error under tier-1) unless rejected first.
        if where == "all":
            m = np.full((DIM, DIM), entry, dtype=np.complex128)
        else:
            m = np.zeros((DIM, DIM), dtype=np.complex128)
            m[0, 0] = entry
        with pytest.raises(ValueError, match="^state entries must be finite$"):
            we.TripartiteState(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            we.TripartiteState(np.eye(DIM, dtype=np.complex128))

    def test_rejects_negative_eigenvalues(self):
        m = np.zeros((DIM, DIM), dtype=np.complex128)
        m[0, 0] = 1.5
        m[1, 1] = -0.5
        with pytest.raises(ValueError):
            we.TripartiteState(m)


def _swap_ground_and_excited():
    """The energy-violating swap |000> <-> |100>."""
    u = np.eye(DIM)
    i, j = _index(0, 0, 0), _index(1, 0, 0)
    u[[i, j]] = u[[j, i]]
    return u


class TestVerifierQuenchesWithTheGivenUnitary:
    def test_swap_breaks_the_level1_balance(self):
        report = we.verify_conservation(we.build_hamiltonian(1.0, 0.5), _swap_ground_and_excited())
        assert report.level1_max_residual == 1.0
        level1 = [v for v in report.violations if v.startswith("level-1")]
        assert any(v.endswith("at rho11=0") for v in level1)
        assert any(v.endswith("at rho11=1") for v in level1)

    @pytest.mark.parametrize("direction", [we.EXPANSION, we.COMPRESSION])
    def test_clean_protocols_have_zero_residuals(self, direction):
        report = we.verify_conservation(we.build_hamiltonian(1.0, 0.5, direction),
                                        we.build_unitary(direction))
        assert report.satisfied
        assert report.commutator_max == 0.0
        assert report.level1_max_residual == 0.0
        assert report.level4_max_residual == 0.0

    def test_non_unitary_is_reported_not_raised(self):
        report = we.verify_conservation(we.build_hamiltonian(1.0, 0.5), 2 * np.eye(DIM))
        assert not report.satisfied
        assert report.level1_max_residual > 0.0


class TestStorageReadoutIsTheReportsWork:
    """Quenching the limit-cycle qubit into the clock-storage system and
    reading the storage gives the report's adiabatic works: the paper's
    measurement model and the cycle report agree on the same states."""

    @pytest.mark.parametrize("t_h", [5.0, 33.37, 60.0, 120.0])
    @pytest.mark.parametrize("t_c", [5.0, 10.0121, 77.7, 120.0])
    def test_expected_work_equals_adiabatic_work(self, reference_context, t_h, t_c):
        ctx = reference_context
        lc = nm.fixed_point(t_h, t_c, ctx.hot_grid, ctx.cold_grid)
        report = nm.evaluate_cycle(ctx, t_h, t_c)
        gap = ctx.omega_h - ctx.omega_c
        # The whole two-point distribution, not only its mean.
        for direction, rho11, rho00, work, readout in (
                (we.EXPANSION, lc.rho11_h, lc.rho00_h, report.W_adiab_h,
                 ((0.0, lc.rho00_h), (gap, lc.rho11_h))),
                (we.COMPRESSION, lc.rho11_c, lc.rho00_c, report.W_adiab_c,
                 ((-gap, lc.rho11_c), (0.0, lc.rho00_c)))):
            ham = we.build_hamiltonian(ctx.omega_h, ctx.omega_c, direction)
            outcome = we.measure_storage(we.apply_extraction(rho11, rho00, ham), ham)
            assert outcome.expected_work == work
            assert outcome.outcomes == readout
