"""The cache-blocked table build: the same bits whatever the block size, and
a peak memory set by the tables rather than by their temporaries.

The unblocked rule is a block of at least the grid's node count; every
table must equal it exactly, signs of zeros included (a lambda = 0 bath
has -0.0 integrands, which "%.17g" prints as -0).
"""

import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import nmotto as nm
from nmotto import special, sweep

from conftest import DATA, base_config_dict, kernel_dump, phase_config_dict

GRID_TABLES = ("D1", "b", "A")
STROKE_TABLES = ("from_ground", "from_excited", "base", "pop")
BLOCKS = (2, 4, 6)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _stroke(bath, t_max):
    return sweep.stroke_tables(bath, 1.0, t_max, 0.05)


def _grid(bath, t_max):
    return nm.build_kernel_grid(bath, 1.0, t_max, 0.05)


@pytest.mark.parametrize("coupling", [0.01, 0.0])
@pytest.mark.parametrize("t_max", [2.0, 2.05])  # 41 and 42 nodes
def test_stroke_tables_do_not_depend_on_the_block_size(monkeypatch, coupling, t_max):
    bath = nm.BathSpec(coupling, 0.4, 1.0)
    monkeypatch.setattr(special, "CACHE_BLOCK", 1 << 20)
    whole, whole_grid = _stroke(bath, t_max), _grid(bath, t_max)
    assert whole.n_points == whole_grid.n_points == round(t_max / 0.05) + 1
    assert whole.t_max == whole_grid.t_max
    for block in BLOCKS:
        monkeypatch.setattr(special, "CACHE_BLOCK", block)
        assert len(special.cache_blocks(whole.n_points)) >= 3
        blocked, blocked_grid = _stroke(bath, t_max), _grid(bath, t_max)
        for name in STROKE_TABLES:
            _assert_same_bits(getattr(blocked, name), getattr(whole, name))
        for name in GRID_TABLES:
            _assert_same_bits(getattr(blocked_grid, name), getattr(whole_grid, name))
    if coupling == 0.0:  # the -0.0 case is exercised
        assert np.signbit(kernel_dump(lambda_h=0.0, t_h=t_max, h=0.05)["a"][1:]).any()


@pytest.mark.parametrize("command", ["kernels", "stroke"])
def test_dumps_do_not_depend_on_the_block_size(monkeypatch, tmp_path, command):
    config = nm.parse_config(base_config_dict(t_h=2.0, h=0.05))  # 41 hot nodes

    def dump(block, text_rows):
        monkeypatch.setattr(special, "CACHE_BLOCK", block)
        monkeypatch.setattr(sweep, "_TEXT_ROWS", text_rows)
        path = tmp_path / f"{block}-{text_rows}.csv"
        if command == "kernels":
            sweep.write_kernel_csv(config, str(path), "hot")
        else:
            sweep.write_trace_csv(config, str(path), "hot", 0.3)
        return path.read_bytes()

    whole = dump(1 << 20, 1 << 20)
    assert whole.count(b"\n") == 1 + 41
    assert dump(1 << 20, 3) == whole  # text slices of 3 rows split the one block
    for block in BLOCKS:
        for text_rows in (3, 1 << 20):
            assert dump(block, text_rows) == whole
        assert len(special.cache_blocks(41)) >= 3


def _block_edges(block):
    # Node counts around the first three block boundaries; a grid has at
    # least 3 nodes (one Simpson pair).
    return sorted({k * block + d for k in (1, 2, 3) for d in (-2, -1, 0, 1, 2)} - {0, 1, 2})


@pytest.mark.parametrize("block", BLOCKS)
def test_cumulative_simpson_does_not_depend_on_the_block_size(monkeypatch, block):
    # The prefix is written over its integrand, so each call gets a copy.
    rng = np.random.default_rng(block)
    for n in sorted(set(range(3, 12)) | set(_block_edges(block))):
        for y in (rng.standard_normal(n), -np.zeros(n)):
            monkeypatch.setattr(special, "CACHE_BLOCK", n + 1)
            whole = nm.cumulative_simpson(y.copy(), 0.1)
            monkeypatch.setattr(special, "CACHE_BLOCK", block)
            table = y.copy()
            got = nm.cumulative_simpson(table, 0.1)
            assert got is table
            _assert_same_bits(got, whole)


@pytest.mark.parametrize("block", (*BLOCKS, 1 << 20))
@pytest.mark.parametrize("coupling", [0.01, 0.0])
def test_derived_tables_have_the_bits_of_their_closed_forms(monkeypatch, block, coupling):
    # A grid keeps D1, b and A; the kernels dump forms tau, D2 and a.
    bath = nm.BathSpec(coupling, 0.4, 1.0)
    monkeypatch.setattr(special, "CACHE_BLOCK", block)
    grid = _grid(bath, 2.05)  # 42 nodes
    dump = kernel_dump(lambda_h=coupling, t_h=2.05, h=0.05)
    tau = np.arange(grid.n_points, dtype=np.float64) * 0.05
    assert grid.n_points == 42
    assert grid.t_max == tau[-1]
    _assert_same_bits(dump["tau"], tau)
    _assert_same_bits(dump["D2"], nm.dissipation_kernel(tau, bath))
    for name in GRID_TABLES:
        _assert_same_bits(dump[name], getattr(grid, name))
    # a is the prefix of the build's integrand, and A the prefix of a: the
    # dump's copy of the integrand has the bits of the build's.
    _assert_same_bits(dump["a"], nm.cumulative_simpson(-2.0 * grid.D1 * np.cos(1.0 * tau), 0.05))
    _assert_same_bits(dump["A"], nm.cumulative_simpson(dump["a"].copy(), 0.05))


DERIVED_NAMES = ("tau", "D1", "D2", "a", "b", "A")


@pytest.mark.parametrize("block", (*BLOCKS, 1 << 20))
@pytest.mark.parametrize("coupling", [0.01, 0.0])
def test_a_stroke_derives_the_tables_of_its_grid(monkeypatch, block, coupling):
    # A stroke keeps its grid's inputs, not its tables; the grid the oracle
    # rebuilds from those inputs has the bits of the grid built directly.
    bath = nm.BathSpec(coupling, 0.4, 1.0)
    monkeypatch.setattr(special, "CACHE_BLOCK", block)
    stroke, grid = _stroke(bath, 2.05), _grid(bath, 2.05)
    assert (stroke.n_points, stroke.t_max, stroke.step) == (grid.n_points, grid.t_max, grid.step)
    assert not any(hasattr(stroke, name) for name in DERIVED_NAMES)
    assert not any(hasattr(grid, name) for name in ("tau", "D2", "a"))
    rebuilt = nm.energetics._kernel_grid(stroke)
    assert (rebuilt.n_points, rebuilt.t_max, rebuilt.step) == (grid.n_points, grid.t_max, grid.step)
    for name in GRID_TABLES:
        table = getattr(rebuilt, name)
        _assert_same_bits(table, getattr(grid, name))
        assert not table.flags.writeable


def test_a_stroke_rebuilds_its_grid_with_its_node_count(monkeypatch):
    # (n - 1) * step rounds past the requested t_max here, and a grid asked
    # for that t_max would have one node more.  The explicit-integral oracle
    # rebuilds a stroke's grid with the stroke's node count.
    bath = nm.BathSpec(0.01, 0.4, 1.0)
    grid = _grid(bath, 1228.8)
    assert (grid.n_points, grid.t_max) == (24577, 1228.8000000000002)
    assert _grid(bath, grid.t_max).n_points == 24578
    stroke = _stroke(bath, 1228.8)
    cold = sweep.stroke_tables(nm.BathSpec(0.01, 0.4, 0.2), 0.5, 10.0)
    lc = nm.fixed_point(grid.t_max, 10.0, stroke, cold)
    builds, build = [], nm.energetics.build_kernel_grid

    def counted(*args):
        builds.append(build(*args))
        return builds[-1]

    monkeypatch.setattr(nm.energetics, "build_kernel_grid", counted)
    value = nm.eq_interaction_integral(lc, "hot", stroke, grid.t_max)
    assert [built.n_points for built in builds] == [24577]
    assert value.hex() == nm.eq_interaction_integral(lc, "hot", grid, grid.t_max).hex()


def test_a_pickled_stroke_carries_no_derived_table():
    config = nm.load_config(str(DATA / "multiblock_cycle.json"))
    stroke = sweep.stroke_tables(*config.stroke("hot"), config.t_h, config.h)
    # Four tables, the two traces, base and pop: 4.00 table sizes measured.
    # A stroke that kept D1, a, b and A too measured 8.00.
    assert len(pickle.dumps(stroke)) <= 4.5 * 8 * stroke.n_points


@pytest.mark.parametrize("block", (4, 1 << 20))
def test_a_shared_noise_table_gives_the_bits_of_a_fresh_build(monkeypatch, noise_builds, block):
    # D1 depends on the bath, step and node count, not on omega0: a build
    # whose key is in the table reads D1 there and computes no noise kernel.
    bath = nm.BathSpec(0.01, 0.4, 1.0)
    monkeypatch.setattr(special, "CACHE_BLOCK", block)
    tables = {}
    first = nm.build_kernel_grid(bath, 1.0, 2.05, 0.05, tables)  # 42 nodes
    assert tables == {(bath, 0.05, 42): first.D1}
    stored = len(noise_builds)
    assert stored == len(special.cache_blocks(42))
    omegas = (1.0, 0.5, 3.0)
    shared = [nm.build_kernel_grid(bath, omega0, 2.05, 0.05, tables) for omega0 in omegas]
    assert len(noise_builds) == stored
    assert list(tables) == [(bath, 0.05, 42)]
    for omega0, grid in zip(omegas, shared):
        assert grid.D1 is first.D1
        fresh = nm.build_kernel_grid(bath, omega0, 2.05, 0.05)
        for name in GRID_TABLES:
            _assert_same_bits(getattr(grid, name), getattr(fresh, name))
            assert not getattr(grid, name).flags.writeable


def _assert_same_bytes(got, want):
    # Bit for bit, sign bits of zeros and of imaginary parts included.
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _fresh(fn, *args):
    # A call with no buffer set, whose arrays are its own.
    return np.array(fn(*args), copy=True)


def test_reused_buffers_give_the_bits_of_fresh_calls():
    # One buffer set serves a full block, a shorter last block, single
    # points and a full block again, as a build's set serves its cache
    # blocks.  Arguments lie on both sides of |z| = 10, where the recurrence
    # stops, and in both half-planes of Im z; a noise kernel's trigamma
    # argument T(1 + i cut tau)/cut has |z| < 10 for tau below ~9.7 here.
    rng = np.random.default_rng(35)
    bath = nm.BathSpec(0.01, 0.4, 1.0)
    buffers = special.BlockBuffers()
    points = [(64, 0.05, 20.0), (24, 0.05, 20.0), (1, 3.0, 3.0), (1, 15.0, 15.0), (64, 0.05, 20.0)]
    for m, low, high in points:
        z = rng.uniform(low, high, m) * np.exp(1j * rng.uniform(-1.5, 1.5, m))
        tau = rng.uniform(0.0, 3.0 * high, m)
        if m > 1:
            assert (np.abs(z) < 10.0).any() and (np.abs(z) > 10.0).any()
        want = _fresh(nm.trigamma_values, z)
        _assert_same_bytes(nm.trigamma_values(z, buffers), want)
        # An argument formed in trigamma's slot is worked on there, not copied.
        slot = buffers.take(0, m, np.complex128)
        slot[:] = z
        got = nm.trigamma_values(slot, buffers)
        assert np.shares_memory(got, slot)
        _assert_same_bytes(got, want)
        _assert_same_bytes(nm.noise_kernel(tau, bath, buffers), _fresh(nm.noise_kernel, tau, bath))
        _assert_same_bytes(nm.dissipation_kernel(tau, bath, buffers), _fresh(nm.dissipation_kernel, tau, bath))


@pytest.mark.parametrize("call", ["argument", "result", "noise"])
def test_a_call_that_raises_leaves_the_next_calls_bits(call):
    # A PoleError may leave a buffer set half written: its argument copied
    # in, or every slot written before the non-finite check.
    rng = np.random.default_rng(36)
    bath = nm.BathSpec(0.01, 0.4, 1.0)
    buffers = special.BlockBuffers()
    z = rng.uniform(0.05, 20.0, 48) * np.exp(1j * rng.uniform(-1.5, 1.5, 48))
    tau = rng.uniform(0.0, 60.0, 48)
    nm.trigamma_values(z, buffers)
    bad = z.copy()
    # The build's errstate: the pole is reported once, as the PoleError.
    with pytest.raises(nm.PoleError), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if call == "argument":  # outside Re z > 0
            bad[5] = -1.0 + 1.0j
            nm.trigamma_values(bad, buffers)
        elif call == "result":  # 1/z^2 overflows
            bad[5] = 1e-170
            nm.trigamma_values(bad, buffers)
        else:  # the argument's square underflows to 0
            nm.noise_kernel(tau, nm.BathSpec(0.01, 0.4, 1e-310), buffers)
    _assert_same_bytes(nm.trigamma_values(z, buffers), _fresh(nm.trigamma_values, z))
    _assert_same_bytes(nm.noise_kernel(tau, bath, buffers), _fresh(nm.noise_kernel, tau, bath))


def test_a_buffer_slot_is_one_view_per_length_and_dtype():
    buffers = special.BlockBuffers()
    full = buffers.take(1, 8)
    assert buffers.take(1, 8) is full
    assert buffers.take(1, 3).base is full.base
    assert buffers.take(1, 8, np.complex128) is not full
    assert buffers.take(1, 8, np.complex128).dtype == np.complex128
    assert buffers.take(2, 8).base is not full.base


def test_builds_of_another_bath_step_or_node_count_share_no_noise_table():
    bath = nm.BathSpec(0.01, 0.4, 1.0)
    tables = {}
    inputs = [(bath, 2.0, 0.05), (bath, 2.05, 0.05), (bath, 2.0, 0.025),
              (nm.BathSpec(0.01, 0.4, 0.2), 2.0, 0.05)]
    grids = [nm.build_kernel_grid(b, 1.0, t_max, step, tables) for b, t_max, step in inputs]
    assert list(tables) == [(b, step, grid.n_points) for (b, _, step), grid in zip(inputs, grids)]
    assert [grid.n_points for grid in grids] == [41, 42, 81, 41]
    assert len({id(table) for table in tables.values()}) == 4
    for (b, t_max, step), grid in zip(inputs, grids):
        _assert_same_bits(grid.D1, nm.build_kernel_grid(b, 1.0, t_max, step).D1)


@pytest.mark.parametrize("temperature, error", [
    (1e-310, nm.PoleError),  # the trigamma argument's square underflows to 0: its pole
    (1e200, nm.GridError),  # T^2 overflows: D1 and the rate tables are not finite
])
def test_a_build_that_raises_stores_no_noise_table(temperature, error):
    kept = nm.BathSpec(0.01, 0.4, 1.0)
    tables = {}
    grid = nm.build_kernel_grid(kept, 1.0, 2.0, 0.05, tables)
    with pytest.raises(error):
        nm.build_kernel_grid(nm.BathSpec(0.01, 0.4, temperature), 1.0, 2.0, 0.05, tables)
    assert tables == {(kept, 0.05, 41): grid.D1}


def test_a_phase_run_keeps_one_noise_table_per_distinct_bath(tmp_path):
    # 2 x 3 ratio cells on a two-block t_box grid, every stroke at step 0.05.
    # The cells share their D1 tables: the hot one and one per T ratio, held
    # to the run's end.  With a D1 per stroke the run peaked at 15.59 t_box
    # table sizes; the last cold bath's build, beside the hot D1 and the two
    # earlier cold D1s, peaked at 18.58 with a build's temporaries allocated
    # per cache block, and at 16.73 with one buffer set per fill.
    config = replace(nm.parse_config(phase_config_dict(
        omega_ratio={"min": 0.3, "max": 0.7, "n": 2}, T_ratio={"min": 0.15, "max": 0.75, "n": 3},
        t_box={"t_max": 3250.0, "n": 2})), workers=1)
    tracemalloc.start()
    try:
        sweep.run_phase(config, str(tmp_path / "phase.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = 65001
    assert nm.build_kernel_grid(*config.stroke("hot"), 3250.0, config.h).n_points == n
    assert len(special.cache_blocks(n)) == 2
    assert (tmp_path / "phase.csv").read_text().count("\n") == 1 + 6
    assert peak <= (15.59 + 3 + 0.5) * 8 * n


def test_cache_blocks_cover_the_grid_in_order(monkeypatch):
    monkeypatch.setattr(special, "CACHE_BLOCK", 4)
    assert special.cache_blocks(0) == []
    assert special.cache_blocks(9) == [slice(0, 4), slice(4, 8), slice(8, 9)]


def test_the_transition_traces_peak_near_their_two_tables():
    # One guarded pass holds the two traces, and each segment's exponential,
    # b-product and prefix C in the first trace's slice, with only cache-block
    # temporaries beside them: 2.41 table sizes measured on this grid.  A pass
    # that kept its exponential and C in tables of their own peaked at ~4.3,
    # and one that broadcast a (2, segment) temporary for the pair at ~6.6.
    config = nm.load_config(str(DATA / "multiblock_cycle.json"))
    grid = nm.build_kernel_grid(*config.stroke("hot"), config.t_h, config.h)
    tracemalloc.start()
    try:
        nm.transition_traces(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = grid.n_points
    assert n >= 4 * special.CACHE_BLOCK
    assert peak <= 2.6 * 8 * n


def test_a_long_stroke_peaks_at_the_tables_it_keeps():
    # A stroke peaks at five tables (D1, b, A and the two traces) and keeps
    # four (the two traces, base and pop): b and A go once the traces are
    # solved, D1 once the flow prefixes are taken.  5.69 hot table sizes
    # measured on this grid, with each fill's temporaries in one buffer set
    # (5.82 with them allocated per cache block).  Strokes that kept their
    # grid's D1, a, b and A peaked at 8.83, and a build that also filled its
    # integrands into tables of their own and stored tau and D2 at ~11.4.
    config = nm.load_config(str(DATA / "multiblock_cycle.json"))
    tracemalloc.start()
    try:
        ctx = sweep.build_context(config, config.t_h, config.t_c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = ctx.hot_grid.n_points
    assert n >= 4 * special.CACHE_BLOCK
    assert peak <= 6.2 * 8 * n


@pytest.mark.parametrize("command", ["kernels", "stroke"])
def test_a_dump_peaks_near_the_tables_of_its_grid(tmp_path, command):
    # A dump forms its node times, D2 and the mix of the traces one cache
    # block of rows at a time, and their CSV text 4096 rows at a time.  The
    # kernels dump holds D1, b, A and the rate a, and the stroke dump the
    # two traces once the grid is dropped: 4.84 and 5.41 hot table sizes
    # measured on this grid (the kernels dump 5.34 with the build's
    # temporaries allocated per cache block).  A kernels dump that formed
    # the text of a whole cache block at once peaked at 10.69, and dumps
    # that formed tau, D2, a and the mix as whole tables at 14.03 and 9.78.
    config = nm.load_config(str(DATA / "multiblock_cycle.json"))
    path = tmp_path / f"{command}.csv"
    tracemalloc.start()
    try:
        if command == "kernels":
            sweep.write_kernel_csv(config, str(path), "hot")
        else:
            sweep.write_trace_csv(config, str(path), "hot", 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = path.read_bytes().count(b"\n") - 1
    assert n == 240001  # every node, at the production block size
    assert n >= 4 * special.CACHE_BLOCK
    assert peak <= 6.0 * 8 * n
