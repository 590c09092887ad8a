import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmotto as nm
from nmotto.dynamics import _solve_full
from nmotto.errors import PositivityError

from conftest import CUTOFF, LAMBDA, OMEGA_H


class TestPropagate:
    def test_zero_time_returns_initial(self, hot_grid):
        trace = nm.propagate(0.42, hot_grid, 0.0)
        assert trace.rho00.shape == (1,)
        assert trace.rho00[0] == 0.42
        assert trace.value_at_t == 0.42

    def test_decoupled_bath_is_constant(self):
        grid = nm.build_kernel_grid(nm.BathSpec("hot", 0.0, CUTOFF, 1.0), OMEGA_H, 30.0)
        trace = nm.propagate(0.3, grid, 30.0)
        assert np.array_equal(trace.rho00, np.full(grid.n_points, 0.3))

    def test_long_time_thermalization(self, hot_bath):
        rate = nm.markov_rate(hot_bath, OMEGA_H)
        grid = nm.build_kernel_grid(hot_bath, OMEGA_H, 9.0 / rate)
        n = nm.bose_occupation(OMEGA_H, hot_bath.temperature)
        stationary = (1.0 + n) / (1.0 + 2.0 * n)
        for initial in (1.0, 0.0):
            final = nm.propagate(initial, grid, grid.t_max).value_at_t
            assert final == pytest.approx(stationary, abs=1e-3)

    def test_trace_in_unit_interval(self, hot_grid):
        trace = nm.propagate(1.0, hot_grid, 100.0)
        assert trace.rho00.min() >= -1e-9
        assert trace.rho00.max() <= 1.0 + 1e-9

    def test_affinity_in_initial_value(self, hot_grid):
        mu = 0.37
        mixed = nm.propagate(mu, hot_grid, 80.0).rho00
        pure = mu * nm.propagate(1.0, hot_grid, 80.0).rho00 \
            + (1.0 - mu) * nm.propagate(0.0, hot_grid, 80.0).rho00
        assert np.max(np.abs(mixed - pure)) < 1e-10

    def test_off_node_time_is_linear_interpolation(self, hot_grid):
        h = hot_grid.step
        t = 10.0 * h + 0.3 * h
        full = nm.propagate(0.8, hot_grid, 30.0)
        expected = 0.7 * full.rho00[10] + 0.3 * full.rho00[11]
        assert nm.propagate(0.8, hot_grid, t).value_at_t == pytest.approx(expected, abs=1e-15)

    def test_bad_inputs_rejected(self, hot_grid):
        with pytest.raises(ValueError):
            nm.propagate(1.2, hot_grid, 1.0)
        with pytest.raises(ValueError):
            nm.propagate(0.5, hot_grid, -1.0)
        with pytest.raises(ValueError):
            nm.propagate(0.5, hot_grid, hot_grid.t_max + 1.0)

    def test_positivity_violation_raises(self):
        # a deliberately coarse grid at strong coupling breaks the quadrature
        bath = nm.BathSpec("hot", 5.0, CUTOFF, 0.1)
        grid = nm.build_kernel_grid(bath, OMEGA_H, 30.0, step=0.8)
        with pytest.raises(PositivityError):
            nm.propagate(1.0, grid, 30.0)

    def test_grid_convergence_of_final_population(self, hot_bath):
        g1 = nm.build_kernel_grid(hot_bath, OMEGA_H, 60.0, 0.05)
        g2 = nm.build_kernel_grid(hot_bath, OMEGA_H, 60.0, 0.025)
        d = abs(nm.propagate(1.0, g1, 60.0).value_at_t - nm.propagate(1.0, g2, 60.0).value_at_t)
        assert d < 1e-7

    def test_markov_rate_crosscheck(self, hot_bath):
        # instantaneous decay of the deviation from the stationary value
        rate = nm.markov_rate(hot_bath, OMEGA_H)
        grid = nm.build_kernel_grid(hot_bath, OMEGA_H, 70.0)
        from_ground, _ = nm.transition_traces(grid)
        n = nm.bose_occupation(OMEGA_H, hot_bath.temperature)
        stationary = (1.0 + n) / (1.0 + 2.0 * n)
        i1, i2 = int(30.0 / grid.step), int(60.0 / grid.step)
        dev1 = from_ground[i1] - stationary
        dev2 = from_ground[i2] - stationary
        estimated = -(math.log(abs(dev2)) - math.log(abs(dev1))) / (grid.tau[i2] - grid.tau[i1])
        assert estimated == pytest.approx(rate, rel=0.02)


class TestTransitionPopulations:
    def test_zero_time(self, hot_grid):
        assert nm.transition_populations(hot_grid, 0.0) == (1.0, 0.0)

    def test_outputs_in_unit_interval(self, hot_grid):
        for t in (0.5, 5.0, 50.0, 120.0):
            r0, r1 = nm.transition_populations(hot_grid, t)
            assert 0.0 <= r0 <= 1.0
            assert 0.0 <= r1 <= 1.0

    def test_difference_equals_exp_big_a(self, hot_grid):
        # subtracting the two solutions cancels the inhomogeneous term
        from_ground, from_excited = nm.transition_traces(hot_grid)
        residual = np.abs((from_ground - from_excited) - np.exp(hot_grid.A))
        assert residual.max() < 1e-10

    def test_rounding_past_t_max_reads_t_max(self, hot_grid):
        t_max, step = hot_grid.t_max, hot_grid.step
        late = t_max + 0.5e-9 * step
        assert late > t_max
        assert nm.transition_populations(hot_grid, late) == nm.transition_populations(hot_grid, t_max)

    def test_beyond_t_max_rejected(self, hot_grid):
        with pytest.raises(ValueError, match="t_max"):
            nm.transition_populations(hot_grid, hot_grid.t_max + 2e-9 * hot_grid.step)

    def test_stroke_tables_are_read_only(self, hot_bath):
        stroke = nm.stroke_tables(nm.build_kernel_grid(hot_bath, OMEGA_H, 20.0))
        for name in ("tau", "D1", "D2", "a", "b", "A", "from_ground", "from_excited", "base", "pop"):
            table = getattr(stroke, name)
            assert table.shape == (stroke.n_points,)
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0


def _linear_read(grid, t, tables):
    # Reference for dynamics._stroke_end: the linear read as it was when it
    # took any number of tables, with its own validation of t.
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and >= 0")
    t_max = float(grid.tau[-1])
    if t > t_max + 1e-9 * grid.step:
        raise ValueError(f"t={t:g} exceeds grid t_max={t_max:g}")
    pos = min(t, t_max) / grid.step
    i = int(pos)
    if i >= grid.n_points - 1:
        return tuple([values.item(-1) for values in tables])
    frac = pos - i
    return tuple([(1.0 - frac) * values.item(i) + frac * values.item(i + 1) for values in tables])


def _outcome(read, *args):
    """The read's floats as hex strings (bit equality), or its ValueError text."""
    try:
        return [x.hex() for x in read(*args)]
    except ValueError as exc:
        return f"ValueError: {exc}"


def _read_times(grid):
    t_max, step = grid.t_max, grid.step
    return st.one_of(
        st.integers(0, grid.n_points - 1).map(lambda k: grid.tau.item(k)),
        st.integers(0, grid.n_points - 1).map(lambda k: k * step),
        st.floats(0.0, t_max),
        st.just(t_max),
        st.floats(0.0, 1.0).map(lambda u: t_max + u * 1e-9 * step),
        st.floats(2e-9 * step, 10.0).map(lambda d: t_max + d),
        st.floats(-10.0, -1e-300),
        st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    )


class TestStrokeEndRead:
    """The pair read equals the parent linear read bit for bit, errors included."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_stroke_tables_match_linear_read(self, hot_grid, data):
        t = data.draw(_read_times(hot_grid))
        for read, tables in ((hot_grid.populations, (hot_grid.from_ground, hot_grid.from_excited)),
                             (hot_grid.flow, (hot_grid.base, hot_grid.pop))):
            assert _outcome(read, t) == _outcome(_linear_read, hot_grid, t, tables)
        assert _outcome(nm.transition_populations, hot_grid, t) \
            == _outcome(hot_grid.populations, t)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), initial=st.sampled_from([1.0, 0.3, 0.0]))
    def test_propagate_value_matches_linear_read(self, hot_grid, data, initial):
        t = data.draw(_read_times(hot_grid))
        full = _solve_full(hot_grid, initial)
        expected = _outcome(_linear_read, hot_grid, t, (full,))
        assert _outcome(lambda: (nm.propagate(initial, hot_grid, t).value_at_t,)) == expected

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), -1.0, 131.0])
    def test_error_texts(self, hot_grid, t):
        text = "t must be finite and >= 0" if t != 131.0 else "t=131 exceeds grid t_max=130"
        for read in (hot_grid.populations, hot_grid.flow):
            assert _outcome(read, t) == f"ValueError: {text}"


def _propagate_segments(b, big_a, step, rho_init):
    # Reference oracle: the segment-wise form of exp(A)*(rho0 - C).  Every
    # exponent is a difference of A over at most one Simpson pair, so it
    # never overflows.
    n = b.shape[0]
    out = np.empty(n)
    out[0] = rho_init
    if n == 1:
        return out
    if n == 2:
        d = math.exp(big_a[1] - big_a[0])
        out[1] = d * rho_init - 0.5 * step * (b[0] * d + b[1])
        return out
    d1 = math.exp(big_a[1] - big_a[0])
    out[1] = d1 * out[0] - step / 12.0 * (
        5.0 * b[0] * d1 + 8.0 * b[1] - b[2] * math.exp(big_a[1] - big_a[2])
    )
    j = 0
    while j + 2 <= n - 1:
        if j > 0:
            d1 = math.exp(big_a[j + 1] - big_a[j])
            out[j + 1] = d1 * out[j] - step / 12.0 * (
                -b[j - 1] * math.exp(big_a[j + 1] - big_a[j - 1]) + 8.0 * b[j] * d1 + 5.0 * b[j + 1]
            )
        d2 = math.exp(big_a[j + 2] - big_a[j])
        out[j + 2] = d2 * out[j] - step / 3.0 * (
            b[j] * d2 + 4.0 * b[j + 1] * math.exp(big_a[j + 2] - big_a[j + 1]) + b[j + 2]
        )
        j += 2
    if j == n - 2:
        d = math.exp(big_a[n - 1] - big_a[n - 2])
        out[n - 1] = d * out[n - 2] - step / 12.0 * (
            -b[n - 3] * math.exp(big_a[n - 1] - big_a[n - 3]) + 8.0 * b[n - 2] * d + 5.0 * b[n - 1]
        )
    return out


def _strong_damping_grid(t_max=14.0):
    # strong damping pushes |A| past 500; the plain form would overflow
    bath = nm.BathSpec("hot", 2.0, CUTOFF, 5.0)
    return bath, nm.build_kernel_grid(bath, CUTOFF, t_max, 0.002)


class TestGuardedPropagation:
    def test_matches_plain_form_on_mild_grids(self, hot_grid):
        assert np.max(np.abs(hot_grid.A)) <= 500.0
        c = nm.cumulative_simpson(hot_grid.b * np.exp(-hot_grid.A), hot_grid.step)
        plain = np.exp(hot_grid.A) * (0.7 - c)
        assert np.array_equal(_solve_full(hot_grid, 0.7), plain)
        segments = _propagate_segments(hot_grid.b, hot_grid.A, hot_grid.step, 0.7)
        assert np.max(np.abs(plain - segments)) < 1e-12

    @pytest.mark.parametrize("t_max", [14.0, 14.002])
    def test_blocks_match_segment_oracle(self, t_max):
        # both parities of the node count; max|A| ~ 656 gives two blocks
        _, grid = _strong_damping_grid(t_max)
        assert np.max(np.abs(grid.A)) > 500.0
        for initial in (1.0, 0.3, 0.0):
            blocks = _solve_full(grid, initial)
            segments = _propagate_segments(grid.b, grid.A, grid.step, initial)
            assert np.max(np.abs(blocks - segments)) <= 1e-12

    def test_engages_beyond_exponent_guard(self):
        bath, grid = _strong_damping_grid()
        assert np.max(np.abs(grid.A)) > 500.0
        trace = nm.propagate(1.0, grid, 14.0)
        assert np.all(np.isfinite(trace.rho00))
        n = nm.bose_occupation(CUTOFF, bath.temperature)
        assert trace.value_at_t == pytest.approx((1.0 + n) / (1.0 + 2.0 * n), abs=5e-3)

    def test_overflow_within_one_pair_raises(self):
        # A drifts by more than the exp range over a single Simpson pair
        bath = nm.BathSpec("hot", 400.0, CUTOFF, 50.0)
        grid = nm.build_kernel_grid(bath, CUTOFF, 20.0, 0.4)
        assert np.max(np.abs(np.diff(grid.A[::2]))) > 710.0
        with pytest.raises(ArithmeticError):
            nm.propagate(1.0, grid, 20.0)
