import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmotto as nm
from nmotto.errors import PositivityError

from conftest import CUTOFF, LAMBDA, OMEGA_H, STROKE_HEADER, base_config_dict, dump_columns


def _dump(directory, initial, **keys):
    """The hot `stroke` dump of the reference config, keys overridden, as (tau, rho00) arrays."""
    path = Path(directory) / "trace.csv"
    nm.sweep.write_trace_csv(nm.parse_config(base_config_dict(**keys)), str(path), "hot", initial)
    columns = dump_columns(path)
    assert ",".join(columns) == STROKE_HEADER
    return columns["tau"], columns["rho00"]


class TestStrokePopulations:
    def test_long_time_thermalization(self, hot_bath):
        rate = nm.markov_rate(hot_bath, OMEGA_H)
        stroke = nm.stroke_tables(hot_bath, OMEGA_H, 9.0 / rate)
        n = nm.bose_occupation(OMEGA_H, hot_bath.temperature)
        stationary = (1.0 + n) / (1.0 + 2.0 * n)
        for final in stroke.populations(stroke.t_max):
            assert final == pytest.approx(stationary, abs=1e-3)

    def test_traces_in_unit_interval(self, hot_kernels):
        for trace in nm.transition_traces(hot_kernels):
            assert trace.min() >= -1e-9
            assert trace.max() <= 1.0 + 1e-9

    def test_off_node_time_is_linear_interpolation(self, hot_grid, hot_kernels):
        h = hot_grid.step
        expected = [0.7 * trace[10] + 0.3 * trace[11] for trace in nm.transition_traces(hot_kernels)]
        assert hot_grid.populations(10.0 * h + 0.3 * h) == pytest.approx(expected, abs=1e-15)

    def test_bad_times_rejected(self, hot_grid):
        with pytest.raises(ValueError):
            hot_grid.populations(-1.0)
        with pytest.raises(ValueError):
            hot_grid.populations(hot_grid.t_max + 1.0)

    def test_positivity_violation_raises(self):
        # a deliberately coarse grid at strong coupling breaks the quadrature
        bath = nm.BathSpec(5.0, CUTOFF, 0.1)
        grid = nm.build_kernel_grid(bath, OMEGA_H, 30.0, step=0.8)
        with pytest.raises(PositivityError) as raised:
            nm.transition_traces(grid)
        error = raised.value
        # the bath's Gibbs excited population n/(1 + 2n) = 1/(e^{omega/T} + 1)
        assert error.gibbs == pytest.approx(1.0 / (math.exp(OMEGA_H / 0.1) + 1.0), rel=1e-12)
        assert error.args == (error.excursion, error.tau, error.gibbs)
        copy = pickle.loads(pickle.dumps(error))  # as a pool worker returns it
        assert (copy.excursion, copy.tau, copy.gibbs) == (error.excursion, error.tau, error.gibbs)
        assert str(copy) == str(error)

    def test_grid_convergence_of_final_population(self, hot_bath):
        g1 = nm.stroke_tables(hot_bath, OMEGA_H, 60.0, 0.05)
        g2 = nm.stroke_tables(hot_bath, OMEGA_H, 60.0, 0.025)
        d = abs(g1.populations(60.0)[0] - g2.populations(60.0)[0])
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
        tau = np.arange(grid.n_points) * grid.step
        estimated = -(math.log(abs(dev2)) - math.log(abs(dev1))) / (tau[i2] - tau[i1])
        assert estimated == pytest.approx(rate, rel=0.02)


class TestStrokeDump:
    """The `stroke` dump is the mix of the stroke's transition traces, cut at its stroke time."""

    def test_short_stroke_starts_at_the_initial_value(self, tmp_path):
        tau, rho = _dump(tmp_path, 0.42, t_h=0.05)  # one grid step
        assert tau.tolist() == [0.0, 0.05]
        assert rho[0] == 0.42

    def test_decoupled_bath_is_constant(self, tmp_path):
        _, rho = _dump(tmp_path, 0.3, lambda_h=0.0, t_h=30.0)
        assert np.array_equal(rho, np.full(601, 0.3))

    def test_affinity_in_initial_value(self, tmp_path):
        mu = 0.37
        _, mixed = _dump(tmp_path, mu, t_h=80.0)
        pure = mu * _dump(tmp_path, 1.0, t_h=80.0)[1] + (1.0 - mu) * _dump(tmp_path, 0.0, t_h=80.0)[1]
        assert np.max(np.abs(mixed - pure)) < 1e-10

    @settings(max_examples=100)
    @given(data=st.data(), x=st.floats(0.0, 1.0))
    def test_dump_is_the_mix_of_the_traces(self, hot_grid, data, x):
        # any stroke time from one grid step to the fixture's t_max, on a node or off it
        t_max, step = hot_grid.t_max, hot_grid.step
        t = data.draw(st.one_of(st.integers(1, hot_grid.n_points - 1).map(lambda k: k * step),
                                st.floats(step, t_max)))
        with tempfile.TemporaryDirectory() as directory:
            tau, rho = _dump(directory, x, t_h=t)
        k = rho.shape[0] - 1
        assert k == min(int(math.floor(t / step + 1e-9)), hot_grid.n_points - 1)
        assert np.array_equal(tau, (np.arange(hot_grid.n_points) * step)[: k + 1])
        # a grid's traces are the prefix of a longer grid's
        mixed = x * hot_grid.from_ground + (1.0 - x) * hot_grid.from_excited
        assert np.array_equal(rho, mixed[: k + 1])

    def test_off_node_time_ends_at_the_node_before(self, tmp_path):
        on_node = _dump(tmp_path, 0.3, t_h=60.0)
        off_node = _dump(tmp_path, 0.3, t_h=60.013)
        assert on_node[0].shape == (1201,)
        for want, got in zip(on_node, off_node):
            assert np.array_equal(want, got)

    def test_rounding_past_a_node_keeps_that_node(self, tmp_path):
        step = 0.05
        tau, _ = _dump(tmp_path, 0.3, t_h=60.0 - 0.5e-9 * step)
        assert tau.shape == (1201,)

    @pytest.mark.parametrize("coupling", [LAMBDA, 0.0])
    def test_pure_starts_are_the_traces(self, tmp_path, coupling):
        grid = nm.build_kernel_grid(nm.BathSpec(coupling, CUTOFF, 1.0), OMEGA_H, 30.0)
        traces = nm.transition_traces(grid)
        for x, trace in zip((1.0, 0.0), traces):
            for t in (grid.t_max, 10.0 * grid.step, 10.3 * grid.step):
                _, rho = _dump(tmp_path, x, lambda_h=coupling, t_h=t)
                want = trace[: rho.shape[0]]
                assert np.array_equal(rho, want)
                assert np.array_equal(np.signbit(rho), np.signbit(want))


class TestTransitionPopulations:
    def test_zero_time(self, hot_grid):
        assert nm.transition_populations(hot_grid, 0.0) == (1.0, 0.0)

    def test_outputs_in_unit_interval(self, hot_grid):
        for t in (0.5, 5.0, 50.0, 120.0):
            r0, r1 = nm.transition_populations(hot_grid, t)
            assert 0.0 <= r0 <= 1.0
            assert 0.0 <= r1 <= 1.0

    def test_difference_equals_exp_big_a(self, hot_kernels):
        # subtracting the two solutions cancels the inhomogeneous term
        from_ground, from_excited = nm.transition_traces(hot_kernels)
        residual = np.abs((from_ground - from_excited) - np.exp(hot_kernels.A))
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
        stroke = nm.stroke_tables(hot_bath, OMEGA_H, 20.0)
        grid = nm.build_kernel_grid(hot_bath, OMEGA_H, 20.0)
        tables = [grid.D1, grid.b, grid.A, stroke.from_ground, stroke.from_excited, stroke.base, stroke.pop]
        for table in tables:
            assert table.shape == (stroke.n_points,)
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0


def _linear_read(grid, t, tables):
    # Reference for dynamics._stroke_end: the linear read as it was when it
    # took any number of tables, with its own validation of t.
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and >= 0")
    t_max = (grid.n_points - 1) * grid.step  # the last node time
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
    tau = np.arange(grid.n_points) * step
    return st.one_of(
        st.integers(0, grid.n_points - 1).map(lambda k: tau.item(k)),
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

    @settings(max_examples=300)
    @given(data=st.data())
    def test_stroke_tables_match_linear_read(self, hot_grid, data):
        t = data.draw(_read_times(hot_grid))
        for read, tables in ((hot_grid.populations, (hot_grid.from_ground, hot_grid.from_excited)),
                             (hot_grid.flow, (hot_grid.base, hot_grid.pop))):
            assert _outcome(read, t) == _outcome(_linear_read, hot_grid, t, tables)
        assert _outcome(nm.transition_populations, hot_grid, t) \
            == _outcome(hot_grid.populations, t)

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
    bath = nm.BathSpec(2.0, CUTOFF, 5.0)
    return bath, nm.build_kernel_grid(bath, CUTOFF, t_max, 0.002)


class TestGuardedPropagation:
    def test_matches_plain_form_on_mild_grids(self, hot_kernels, tmp_path):
        grid = hot_kernels
        assert np.max(np.abs(grid.A)) <= 500.0
        c = nm.cumulative_simpson(grid.b * np.exp(-grid.A), grid.step)
        growth = np.exp(grid.A)
        from_ground, from_excited = nm.transition_traces(grid)
        assert np.array_equal(from_ground, growth * (1.0 - c))
        assert np.array_equal(from_excited, growth * (0.0 - c))
        _, mixed = _dump(tmp_path, 0.7, t_h=grid.t_max)
        segments = _propagate_segments(grid.b, grid.A, grid.step, 0.7)
        assert np.max(np.abs(mixed - segments)) < 1e-12

    @pytest.mark.parametrize("t_max", [14.0, 14.002])
    def test_blocks_match_segment_oracle(self, tmp_path, t_max):
        # both parities of the node count; max|A| ~ 656 gives two blocks
        bath, grid = _strong_damping_grid(t_max)
        assert np.max(np.abs(grid.A)) > 500.0
        from_ground, from_excited = nm.transition_traces(grid)
        # the same bath and grid as a config's hot stroke (omega_c stays below omega_h)
        _, mixed = _dump(tmp_path, 0.3, omega_h=CUTOFF, omega_c=0.2, T_h=bath.temperature,
                         lambda_h=bath.coupling, h=grid.step, t_h=t_max)
        for initial, trace in ((1.0, from_ground), (0.0, from_excited), (0.3, mixed)):
            segments = _propagate_segments(grid.b, grid.A, grid.step, initial)
            assert np.max(np.abs(trace - segments[:trace.shape[0]])) <= 1e-12

    def test_engages_beyond_exponent_guard(self):
        bath, grid = _strong_damping_grid()
        assert np.max(np.abs(grid.A)) > 500.0
        stroke = nm.stroke_tables(bath, CUTOFF, 14.0, 0.002)
        assert np.all(np.isfinite(stroke.from_ground))
        n = nm.bose_occupation(CUTOFF, bath.temperature)
        final, _ = stroke.populations(14.0)
        assert final == pytest.approx((1.0 + n) / (1.0 + 2.0 * n), abs=5e-3)

    def test_overflow_within_one_pair_raises(self):
        # A drifts by more than the exp range over a single Simpson pair
        bath = nm.BathSpec(400.0, CUTOFF, 50.0)
        grid = nm.build_kernel_grid(bath, CUTOFF, 20.0, 0.4)
        assert np.max(np.abs(np.diff(grid.A[::2]))) > 710.0
        with pytest.raises(nm.GridError, match=r"\(step 0\.4\); decrease h"):
            nm.transition_traces(grid)


def _count_cumulative_simpson(monkeypatch):
    calls, original = [], nm.dynamics.cumulative_simpson

    def counted(y, step):
        calls.append(y.shape[0])
        return original(y, step)

    monkeypatch.setattr(nm.dynamics, "cumulative_simpson", counted)
    return calls


class TestOneSolve:
    """Both transition traces come from one guarded pass."""

    def test_a_lone_last_odd_node_ends_a_segment_of_its_own(self, monkeypatch):
        # An even node count, and |A| first passes the guard at the last node:
        # the first guard segment ends on the even node before it, and the
        # last node is a segment of two nodes, whose C is the backward
        # quadratic alone.  The prefix never sees fewer than 3 nodes.
        _, grid = _strong_damping_grid(10.426)
        n = grid.n_points
        assert n == 5214
        assert np.max(np.abs(grid.A[:-1])) <= 500.0 < abs(grid.A[-1])
        calls = _count_cumulative_simpson(monkeypatch)
        from_ground, from_excited = nm.transition_traces(grid)
        assert calls == [n - 1]
        for initial, trace in ((1.0, from_ground), (0.0, from_excited)):
            segments = _propagate_segments(grid.b, grid.A, grid.step, initial)
            assert np.max(np.abs(trace - segments)) <= 1e-12
        # The bits of a build whose prefix took the two-node segment itself.
        assert [from_ground[-1].hex(), from_excited[-1].hex()] == ["0x1.0b1a1d4bce6bdp-1"] * 2
        assert from_ground[-2].hex() == "0x1.0b19ebf9f3089p-1"

    def test_one_prefix_per_guard_segment(self, monkeypatch, hot_kernels):
        calls = _count_cumulative_simpson(monkeypatch)
        nm.transition_traces(hot_kernels)
        assert calls == [hot_kernels.n_points]
        _, strong = _strong_damping_grid()
        calls.clear()
        nm.transition_traces(strong)
        assert len(calls) == 2  # two guard segments, max|A| ~ 656
        assert sum(calls) == strong.n_points + 1  # they share their boundary node
