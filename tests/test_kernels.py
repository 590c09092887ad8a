import itertools
import math

import numpy as np
import pytest

import nmotto as nm
from nmotto.errors import GridError
from nmotto.kernels import MAX_GRID_NODES, gibbs_populations

from conftest import (CUTOFF, LAMBDA, OMEGA_C, OMEGA_H, T_C, T_H, dissipation_kernel_oracle,
                      kernel_dump, noise_kernel_oracle)


class TestBathSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(coupling=-0.1), dict(cutoff=0.0), dict(temperature=-1.0),
        dict(cutoff=math.inf), dict(temperature=math.nan),
    ])
    def test_rejects_nonpositive_parameters(self, kwargs):
        base = dict(coupling=0.01, cutoff=0.4, temperature=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            nm.BathSpec(**base)

    def test_zero_coupling_is_a_valid_decoupled_bath(self):
        bath = nm.BathSpec(0.0, 0.4, 1.0)
        assert nm.noise_kernel(3.0, bath) == 0.0
        assert nm.dissipation_kernel(3.0, bath) == 0.0


class TestSpectralDensity:
    def test_zero_at_zero(self, hot_bath):
        assert nm.spectral_density(0.0, hot_bath) == 0.0

    def test_maximum_at_cutoff(self, hot_bath):
        w = np.linspace(0.01, 4.0, 4000)
        j = nm.spectral_density(w, hot_bath)
        assert w[np.argmax(j)] == pytest.approx(hot_bath.cutoff, abs=2e-3)

    def test_reference_value(self, hot_bath):
        # lam=0.01, cutoff=0.4 at w=0.4: 0.004/e
        assert nm.spectral_density(0.4, hot_bath) == pytest.approx(0.004 * math.exp(-1.0), rel=1e-14)

    def test_negative_frequency_rejected(self, hot_bath):
        with pytest.raises(ValueError):
            nm.spectral_density(-0.1, hot_bath)

    def test_zero_where_the_exponential_underflows(self, hot_bath):
        # lam * w overflows to inf where exp(-w/cutoff) is 0: inf * 0 would be
        # nan, and J's limit is 0.  Everywhere else J has the expression's bits.
        j = nm.spectral_density(1e300, nm.BathSpec(1e300, CUTOFF, T_H))
        assert type(j) is np.float64 and j == 0.0  # a numpy scalar for a scalar
        assert nm.spectral_density(math.inf, hot_bath) == 0.0
        w = np.concatenate([[0.0, 5e-324], np.geomspace(1e-300, 1e300, 121)])
        for lam, cutoff in itertools.product([0.0, 1e-300, LAMBDA, 1e300], [1e-300, CUTOFF, 1e300]):
            got = nm.spectral_density(w, nm.BathSpec(lam, cutoff, T_H))
            for x, j in zip(w.tolist(), got.tolist()):
                decay = math.exp(-x / cutoff)
                assert j.hex() == (lam * x * decay if decay else 0.0).hex()


class TestGibbsPopulations:
    @pytest.mark.parametrize("omega, temperature", [(OMEGA_H, T_H), (OMEGA_C, T_C)])
    def test_reference_values_are_the_closed_forms(self, omega, temperature):
        n = nm.bose_occupation(omega, temperature)
        assert gibbs_populations(omega, temperature) == ((1.0 + n) / (1.0 + 2.0 * n),
                                                          n / (1.0 + 2.0 * n))

    @pytest.mark.parametrize("omega, temperature", [(1e-308, 1.0), (1e-310, 50.0), (5e-324, 50.0)])
    def test_overflowing_occupation_takes_the_limit(self, omega, temperature):
        # 2n overflows: n/(1 + 2n) would read 0 where n is finite (1e-308)
        # and nan where n is inf
        assert gibbs_populations(omega, temperature) == (0.5, 0.5)


class TestKernelClosedForms:
    def test_noise_kernel_at_zero_from_recurrence(self, hot_bath):
        # recompute psi'(T/cutoff) = psi'(2.5) via two recurrence steps off psi'(0.5)
        psi_half = nm.trigamma_values(0.5).real
        psi = psi_half - 1.0 / 0.25 - 1.0 / 2.25
        expected = 2.0 * LAMBDA * (-CUTOFF ** 2 + 2.0 * T_H ** 2 * psi)
        assert nm.noise_kernel(0.0, hot_bath) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(1.642e-2, rel=1e-3)

    def test_dissipation_reference_value(self, hot_bath):
        # 4*0.01*0.4^3*2.5 / (1+1)^2
        assert nm.dissipation_kernel(2.5, hot_bath) == pytest.approx(1.6e-3, rel=1e-12)
        assert nm.dissipation_kernel(0.0, hot_bath) == 0.0

    @pytest.mark.parametrize("temperature", [0.2, 1.0])
    def test_noise_kernel_matches_defining_integral(self, temperature):
        bath = nm.BathSpec(LAMBDA, CUTOFF, temperature)
        for tau in (0.0, 0.8, 3.7, 12.0, 47.1):
            closed = nm.noise_kernel(tau, bath)
            assert abs(noise_kernel_oracle(bath, tau) - closed) <= 1e-10 * abs(closed)

    def test_dissipation_matches_defining_integral(self, hot_bath):
        for tau in (0.6, 2.5, 9.3, 30.0):
            closed = nm.dissipation_kernel(tau, hot_bath)
            assert abs(dissipation_kernel_oracle(hot_bath, tau) - closed) <= 1e-10 * abs(closed)

    def test_linear_in_coupling(self):
        tau = np.linspace(0.0, 20.0, 101)
        one = nm.BathSpec(0.01, 0.4, 1.0)
        double = nm.BathSpec(0.02, 0.4, 1.0)
        assert np.array_equal(2.0 * nm.noise_kernel(tau, one), nm.noise_kernel(tau, double))
        assert np.array_equal(2.0 * nm.dissipation_kernel(tau, one), nm.dissipation_kernel(tau, double))


class TestKernelGrid:
    def test_zero_entries_at_origin(self, hot_kernels):
        dump = kernel_dump(t_h=130.0)
        assert dump["a"][0] == 0.0
        assert hot_kernels.b[0] == 0.0
        assert hot_kernels.A[0] == 0.0
        assert dump["D2"][0] == 0.0

    def test_tables_finite_and_immutable(self, hot_kernels):
        for name in ("D1", "b", "A"):
            arr = getattr(hot_kernels, name)
            assert np.all(np.isfinite(arr))
            assert not arr.flags.writeable
        for column in kernel_dump(t_h=130.0).values():
            assert np.all(np.isfinite(column))

    def test_uniform_tau(self, hot_kernels):
        assert np.array_equal(kernel_dump(t_h=130.0)["tau"],
                              np.arange(hot_kernels.n_points) * hot_kernels.step)

    def test_real_b_matches_complex_form(self, hot_kernels, hot_bath):
        # b via Phi(u) e^{i w0 u} + Phi(-u) e^{-i w0 u}, Phi = (D1 - i D2)/2
        g = hot_kernels
        tau = np.arange(g.n_points) * g.step
        d2 = nm.dissipation_kernel(tau, hot_bath)
        phi_plus = 0.5 * (g.D1 - 1j * d2)
        phi_minus = 0.5 * (g.D1 + 1j * d2)
        integrand = -(phi_plus * np.exp(1j * g.omega0 * tau)
                      + phi_minus * np.exp(-1j * g.omega0 * tau))
        complex_b = nm.cumulative_simpson(integrand, g.step)
        assert np.max(np.abs(complex_b.imag)) < 1e-14
        assert np.max(np.abs(complex_b.real - g.b)) < 1e-10

    def test_long_time_rate_limit(self, hot_bath):
        # cosine transform of D1 concentrates at omega0 for tau >> 1/cutoff
        coth = 1.0 / math.tanh(OMEGA_H / (2.0 * hot_bath.temperature))
        expected = -2.0 * math.pi * nm.spectral_density(OMEGA_H, hot_bath) * coth
        assert kernel_dump(t_h=130.0)["a"][-1] == pytest.approx(expected, rel=1e-2)

    def test_grid_convergence_under_halving(self, hot_bath):
        coarse = nm.build_kernel_grid(hot_bath, OMEGA_H, 20.0, 0.0125)
        fine = nm.build_kernel_grid(hot_bath, OMEGA_H, 20.0, 0.00625)
        coarse_a = kernel_dump(t_h=20.0, h=0.0125)["a"]
        fine_a = kernel_dump(t_h=20.0, h=0.00625)["a"]
        shared = fine.A[::2][: coarse.n_points]
        # a, b entry-wise; A against its own scale (it vanishes quadratically
        # at early nodes, where an entry-wise quotient is ill-posed)
        for c, f in ((coarse_a, fine_a), (coarse.b, fine.b)):
            f = f[::2][: coarse.n_points]
            nz = f != 0.0
            assert np.max(np.abs(c[nz] - f[nz]) / np.abs(f[nz])) < 1e-8
        assert np.max(np.abs(coarse.A - shared)) < 1e-8 * np.max(np.abs(shared))
        assert np.array_equal(coarse.D1, fine.D1[::2][: coarse.n_points])

    def test_coupling_scaling_is_exact_for_powers_of_two(self):
        base = nm.build_kernel_grid(nm.BathSpec(0.01, 0.4, 1.0), 1.0, 10.0)
        scaled = nm.build_kernel_grid(nm.BathSpec(0.02, 0.4, 1.0), 1.0, 10.0)
        for name in ("D1", "b", "A"):
            assert np.array_equal(2.0 * getattr(base, name), getattr(scaled, name))
        base_dump = kernel_dump(lambda_h=0.01, t_h=10.0)
        scaled_dump = kernel_dump(lambda_h=0.02, t_h=10.0)
        for name in ("D2", "a"):
            assert np.array_equal(2.0 * base_dump[name], scaled_dump[name])

    def test_step_validation(self, hot_bath):
        with pytest.raises(GridError, match="^step 11 exceeds t_max 10: "):
            nm.build_kernel_grid(hot_bath, OMEGA_H, 10.0, step=11.0)
        for step in (-0.1, 0.0, math.nan, math.inf):
            with pytest.raises(GridError, match="^step must be finite and > 0"):
                nm.build_kernel_grid(hot_bath, OMEGA_H, 10.0, step=step)
        with pytest.raises(GridError):
            nm.build_kernel_grid(hot_bath, OMEGA_H, -5.0)

    def test_omega0_validation(self, hot_bath):
        for omega0 in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(GridError, match="^omega0 must be finite and > 0$"):
                nm.build_kernel_grid(hot_bath, omega0, 10.0)

    def test_node_budget_enforced(self, hot_bath):
        with pytest.raises(GridError):
            nm.build_kernel_grid(hot_bath, OMEGA_H, 1e6, step=1e-2)

    @pytest.mark.parametrize("t_max, step, count", [
        (60.0, 1e-320, "inf"),  # the count overflows: no int() of infinity
        (1e300, 0.05, r"2e\+301"),  # no 300-digit integer in the message
        (MAX_GRID_NODES * 0.5, 0.5, r"1e\+07"),  # one node past the budget
    ], ids=["subnormal_step", "huge_t_max", "one_past_budget"])
    def test_node_count_checked_as_a_float(self, hot_bath, t_max, step, count):
        with pytest.raises(GridError, match=f"grid would need {count} nodes"):
            nm.build_kernel_grid(hot_bath, OMEGA_H, t_max, step)

    def test_non_finite_tables_rejected(self):
        # T^2 overflows float64 in D1; numpy stays silent and the grid is refused
        with pytest.raises(GridError, match="not finite"):
            nm.build_kernel_grid(nm.BathSpec(LAMBDA, CUTOFF, 1e200), OMEGA_H, 10.0)

    def test_default_step_rule(self):
        assert nm.default_grid_step(1.0, 0.4) == 0.05
        assert nm.default_grid_step(50.0, 0.4) == pytest.approx(2.0 * math.pi / 50.0 / 64.0)
        assert nm.default_grid_step(1.0, 40.0) == pytest.approx(2.0 * math.pi / 40.0 / 64.0)
