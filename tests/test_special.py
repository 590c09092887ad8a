import inspect
import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import nmotto as nm
from nmotto.errors import PoleError

from conftest import CUTOFF, T_C, T_H, trigamma_series_oracle

PI2 = math.pi ** 2


class TestTrigamma:
    def test_known_identities(self):
        assert nm.trigamma_values(1.0).real == pytest.approx(PI2 / 6.0, rel=1e-12)
        assert nm.trigamma_values(0.5).real == pytest.approx(PI2 / 2.0, rel=1e-12)
        assert abs(nm.trigamma_values(1.0).imag) < 1e-14
        # psi'(2.5) by peeling two recurrence steps off psi'(0.5)
        expected = PI2 / 2.0 - 4.0 - 1.0 / 2.25
        assert nm.trigamma_values(2.5).real == pytest.approx(expected, rel=1e-12)

    def test_complex_point_against_series_oracle(self):
        z = 2.5 + 1.0j
        # frozen from the summation oracle (1e6 terms + tail estimate)
        frozen = 0.39838135667474245 - 0.19304498919054702j
        live = trigamma_series_oracle(z)
        assert abs(live - frozen) < 1e-13
        assert abs(nm.trigamma_values(z) - frozen) < 1e-12 * abs(frozen)

    def test_real_points_against_series_oracle(self):
        for x in np.linspace(0.1, 10.0, 23):
            oracle = trigamma_series_oracle(complex(x))
            assert abs(nm.trigamma_values(x) - oracle) < 1e-10 * abs(oracle)

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

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -3.0 + 1e-13j])
    def test_pole_inputs_raise(self, z):
        with pytest.raises(PoleError):
            nm.trigamma_values(z)

    @pytest.mark.parametrize("z", [complex(-0.0, 1.0), 1j, -2.0 + 1e-6j, -7.25 - 2.0j, -0.5,
                                   complex(-5e-324, 3.0)],
                             ids=["-0+1j", "+0+1j", "near_pole", "left", "negative_real", "tiny_left"])
    def test_outside_the_right_half_plane_raises(self, z):
        with pytest.raises(PoleError, match="outside Re z > 0"):
            nm.trigamma_values(np.array([1.0 + 1.0j, z]))

    def test_tiny_positive_real_part_is_the_leading_pole_term(self):
        # psi'(z) = 1/z^2 + psi'(1 + z), and psi'(1) = pi^2/6 is ~1e-25 of 1/z^2 here
        z = 1e-13
        assert abs(nm.trigamma_values(z) - 1.0 / z ** 2) <= 1e-12 / z ** 2

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
        scalar = np.array([nm.trigamma_values(zi) for zi in z])
        assert np.array_equal(nm.trigamma_values(z), scalar)
        # points on both sides of |z| = 10 share one batch
        mixed = np.array([0.5 + 1.0j, 30.0 + 2.0j, 2.5, 12.0 - 5.0j, 10.5])
        scalar = np.array([nm.trigamma_values(zi) for zi in mixed])
        assert np.array_equal(nm.trigamma_values(mixed), scalar)

    def test_mixed_real_parts_against_series_oracle(self):
        z = np.array([0.5 + 1.0j, 3.0 + 0.2j, 9.99, 10.0 + 4.0j, 12.0 + 5.0j, 25.0 - 3.0j, 0.1 - 7.0j])
        values = nm.trigamma_values(z)
        for zi, value in zip(z, values):
            oracle = trigamma_series_oracle(zi)
            assert abs(value - oracle) < 1e-12 * abs(oracle)


    def test_against_mpmath_oracle(self):
        # kernel-grid arguments T(1 + i cutoff tau)/cutoff of the reference
        # hot and cold baths, then random points with Re z > 0
        rng = np.random.default_rng(3)
        tau = np.concatenate([0.05 * np.arange(100), rng.uniform(5.0, 1000.0, 40)])
        z = np.concatenate([
            temp * (1.0 + 1j * CUTOFF * tau) / CUTOFF for temp in (T_H, T_C)
        ] + [rng.uniform(0.01, 12.0, 60) + 1j * rng.uniform(-12.0, 12.0, 60),
             rng.uniform(0.01, 60.0, 60) + 1j * rng.uniform(-1e3, 1e3, 60)])
        assert _mpmath_relative_error(z).max() <= 2e-14

    def test_very_negative_argument_returns(self):
        # rejected up front: one recurrence step per unit of -Re z would not return
        src = os.path.dirname(os.path.dirname(os.path.abspath(nm.__file__)))
        code = ("import numpy as np, nmotto as nm\n"
                "try:\n"
                "    nm.trigamma_values(np.array([-1e9 + 0.5j, 1 + 1j]))\n"
                "except nm.PoleError as exc:\n"
                "    print(exc)\n")
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        assert "outside Re z > 0" in done.stdout

    @settings(max_examples=300)
    @given(re=st.floats(0.0, 60.0, exclude_min=True), im=st.floats(-1e3, 1e3))
    def test_recurrence_identity(self, re, im):
        z = complex(re, im)
        assume(abs(z) > 1e-3)  # away from the pole at 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            here, up = nm.trigamma_values(np.array([z, z + 1.0]))
        assert abs(here - up - 1.0 / z ** 2) <= 2e-14 * (abs(here) + abs(up) + abs(1.0 / z ** 2))


def _mpmath_relative_error(z):
    with mpmath.workdps(30):
        oracle = np.array([complex(mpmath.psi(1, mpmath.mpc(zi.real, zi.imag))) for zi in z])
    return np.abs(nm.trigamma_values(z) - oracle) / np.abs(oracle)


class TestCumulativeSimpson:
    def test_matches_total_on_even_interval_counts(self):
        x = np.linspace(0.0, 3.0, 301)
        y = np.sin(2.0 * x) * np.exp(-0.3 * x)
        cum = nm.cumulative_simpson(y.copy(), x[1] - x[0])
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

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_nodes_raise(self, n):
        # A kernel grid has at least 3 nodes, and a two-node guard segment takes no prefix.
        y = np.arange(1.0, n + 1.0)
        with pytest.raises(ValueError, match="at least 3 nodes"):
            nm.cumulative_simpson(y, 0.5)
        assert np.array_equal(y, np.arange(1.0, n + 1.0))

    def test_complex_values(self):
        x = np.linspace(0.0, 1.0, 101)
        y = np.exp(1j * x)
        cum = nm.cumulative_simpson(y, x[1] - x[0])
        expected = (np.exp(1j * x) - 1.0) / 1j
        assert np.max(np.abs(cum - expected)) < 1e-9


@pytest.mark.parametrize("n", [0, 1])
def test_simpson_of_fewer_than_two_samples_is_zero(n):
    assert nm.simpson(np.ones(n), 0.5) == 0.0


def test_one_form_per_primitive():
    # trigamma_values takes a scalar too (a 0-d array), and the prefix is
    # always taken over its integrand.
    assert not hasattr(nm, "trigamma")
    assert not hasattr(nm.special, "trigamma")
    assert "trigamma" not in nm.special.__all__
    assert list(inspect.signature(nm.cumulative_simpson).parameters) == ["y", "step"]
    assert nm.trigamma_values(1.0).shape == ()
