import math

import numpy as np
import pytest

import nmotto as nm
from nmotto.errors import PoleError, QuadratureError

from conftest import trigamma_series_oracle

PI2 = math.pi ** 2


class TestTrigamma:
    def test_known_identities(self):
        assert nm.trigamma(1.0).real == pytest.approx(PI2 / 6.0, rel=1e-12)
        assert nm.trigamma(0.5).real == pytest.approx(PI2 / 2.0, rel=1e-12)
        assert abs(nm.trigamma(1.0).imag) < 1e-14
        # psi'(2.5) by peeling two recurrence steps off psi'(0.5)
        expected = PI2 / 2.0 - 4.0 - 1.0 / 2.25
        assert nm.trigamma(2.5).real == pytest.approx(expected, rel=1e-12)

    def test_complex_point_against_series_oracle(self):
        z = 2.5 + 1.0j
        # frozen from the summation oracle (1e6 terms + tail estimate)
        frozen = 0.39838135667474245 - 0.19304498919054702j
        live = trigamma_series_oracle(z)
        assert abs(live - frozen) < 1e-13
        assert abs(nm.trigamma(z) - frozen) < 1e-12 * abs(frozen)

    def test_real_points_against_series_oracle(self):
        for x in np.linspace(0.1, 10.0, 23):
            oracle = trigamma_series_oracle(complex(x))
            assert abs(nm.trigamma(x) - oracle) < 1e-10 * abs(oracle)

    def test_recurrence_residual_random_arguments(self):
        rng = np.random.default_rng(42)
        z = rng.uniform(0.1, 10.0, 1000) + 1j * rng.uniform(-10.0, 10.0, 1000)
        values = nm.trigamma_values(z)
        shifted = nm.trigamma_values(z + 1.0)
        residual = np.abs(values - shifted - 1.0 / z ** 2)
        assert residual.max() < 1e-11

    def test_outputs_finite(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(0.05, 20.0, 200) + 1j * rng.uniform(-50.0, 50.0, 200)
        values = nm.trigamma_values(z)
        assert np.all(np.isfinite(values.real)) and np.all(np.isfinite(values.imag))

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -3.0 + 1e-13j, 1e-13])
    def test_pole_inputs_raise(self, z):
        with pytest.raises(PoleError):
            nm.trigamma(z)

    def test_near_pole_but_outside_tolerance_is_fine(self):
        value = nm.trigamma(-2.0 + 1e-6j)
        assert np.isfinite(value.real) and np.isfinite(value.imag)

    @pytest.mark.parametrize("bad", [complex("-inf"), complex("inf"), complex(1.0, math.inf),
                                     complex(math.nan, 0.0), complex(2.0, math.nan)],
                             ids=["-inf", "inf", "inf_imag", "nan", "nan_imag"])
    def test_non_finite_arguments_rejected(self, bad):
        # -inf used to step the recurrence forever; NaN warned before failing
        with pytest.raises(ValueError, match="finite"):
            nm.trigamma_values(np.array([bad, 1.0 + 1.0j]))

    def test_kernel_grid_argument_matches_scalar_bitwise(self, hot_bath):
        # the argument noise_kernel passes: one real part at every node
        x = hot_bath.cutoff * np.arange(2001) * 0.05
        z = hot_bath.temperature * (1.0 + 1j * x) / hot_bath.cutoff
        scalar = np.array([nm.trigamma(zi) for zi in z])
        assert np.array_equal(nm.trigamma_values(z), scalar)

    def test_mixed_real_parts_against_series_oracle(self):
        z = np.array([0.5 + 1.0j, 3.0 + 0.2j, 9.99, 10.0 + 4.0j, 12.0 + 5.0j, 25.0 - 3.0j, 0.1 - 7.0j])
        values = nm.trigamma_values(z)
        for zi, value in zip(z, values):
            oracle = trigamma_series_oracle(zi)
            assert abs(value - oracle) < 1e-12 * abs(oracle)


class TestIntegrateFinite:
    def test_sine_over_half_period(self):
        assert nm.integrate_finite(np.sin, 0.0, math.pi, 1e-10) == pytest.approx(2.0, abs=1e-9)

    def test_empty_interval(self):
        assert nm.integrate_finite(np.sin, 2.0, 2.0, 1e-10) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            nm.integrate_finite(np.sin, 1.0, 0.0, 1e-10)

    def test_oscillatory_decaying_against_richardson_oracle(self):
        # step-halving trapezoid + Richardson, independent of Simpson code
        def f(x):
            return np.cos(5.0 * x) * np.exp(-x)

        def trapezoid(n):
            x = np.linspace(0.0, 10.0, n + 1)
            y = f(x)
            return 10.0 / n * (0.5 * y[0] + y[1:-1].sum() + 0.5 * y[-1])

        n, prev, oracle = 64, trapezoid(64), None
        while True:
            n *= 2
            cur = trapezoid(n)
            rich = (4.0 * cur - prev) / 3.0
            if oracle is not None and abs(rich - oracle) < 1e-10:
                oracle = rich
                break
            oracle, prev = rich, cur
        frozen = 0.03845756275419048
        assert oracle == pytest.approx(frozen, abs=1e-10)
        assert nm.integrate_finite(f, 0.0, 10.0, 1e-10) == pytest.approx(oracle, abs=1e-9)

    def test_cubic_polynomials_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rng.uniform(-2.0, 2.0, 4)
            a, b = sorted(rng.uniform(-3.0, 3.0, 2))
            if b - a < 1e-3:
                continue
            exact = sum(c[k] / (k + 1) * (b ** (k + 1) - a ** (k + 1)) for k in range(4))
            got = nm.integrate_finite(lambda x: c[0] + c[1] * x + c[2] * x ** 2 + c[3] * x ** 3,
                                      a, b, 1e-12)
            assert abs(got - exact) < 1e-13 * max(1.0, b - a) * max(1.0, abs(exact))

    def test_nonconvergence_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(QuadratureError):
            nm.integrate_finite(lambda x: rng.standard_normal(x.shape), 0.0, 1.0, 1e-14)


class TestCumulativeSimpson:
    def test_matches_total_on_even_interval_counts(self):
        x = np.linspace(0.0, 3.0, 301)
        y = np.sin(2.0 * x) * np.exp(-0.3 * x)
        cum = nm.cumulative_simpson(y, x[1] - x[0])
        assert cum[0] == 0.0
        assert cum[-1] == pytest.approx(nm.simpson(y, x[1] - x[0]), abs=1e-15)

    def test_prefix_values_against_closed_form(self):
        # int_0^t sin = 1 - cos(t) at every node
        x = np.linspace(0.0, 2.0 * math.pi, 401)
        cum = nm.cumulative_simpson(np.sin(x), x[1] - x[0])
        assert np.max(np.abs(cum - (1.0 - np.cos(x)))) < 1e-8

    def test_quadratic_exact_at_every_node(self):
        x = np.linspace(0.0, 1.0, 11)
        y = 3.0 * x ** 2 - 2.0 * x + 0.5
        exact = x ** 3 - x ** 2 + 0.5 * x
        cum = nm.cumulative_simpson(y, 0.1)
        assert np.max(np.abs(cum - exact)) < 1e-15

    def test_odd_interval_tail(self):
        x = np.linspace(0.0, 1.0, 10)
        y = x ** 2
        cum = nm.cumulative_simpson(y, x[1] - x[0])
        assert cum[-1] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_two_point_grid(self):
        assert nm.cumulative_simpson(np.array([1.0, 3.0]), 0.5)[1] == pytest.approx(1.0)

    def test_complex_values(self):
        x = np.linspace(0.0, 1.0, 101)
        y = np.exp(1j * x)
        cum = nm.cumulative_simpson(y, x[1] - x[0])
        expected = (np.exp(1j * x) - 1.0) / 1j
        assert np.max(np.abs(cum - expected)) < 1e-9


class TestSemiInfinite:
    def test_exponential(self):
        assert nm.integrate_semi_infinite(lambda x: np.exp(-x), 1.0, 1e-10) == pytest.approx(1.0, abs=1e-9)

    def test_zero_integrand(self):
        assert nm.integrate_semi_infinite(lambda x: 0.0 * x, 1.0, 1e-10) == 0.0

    def test_matches_dissipation_closed_form(self, hot_bath):
        # x e^{-x/cutoff} sin(x tau) transform, compared through the kernel
        tau = 2.5
        lam, cut = hot_bath.coupling, hot_bath.cutoff
        oracle = nm.integrate_semi_infinite(
            lambda w: 2.0 * lam * w * np.exp(-w / cut) * np.sin(w * tau), cut, 1e-12)
        assert oracle == pytest.approx(nm.dissipation_kernel(tau, hot_bath), rel=1e-8)

    def test_growing_integrand_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(QuadratureError):
            nm.integrate_semi_infinite(lambda x: np.exp(0.01 * x), 1.0, 1e-8)
