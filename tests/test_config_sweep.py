import csv
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nmotto as nm
from nmotto.config import load_config, parse_config, sweep_axes
from nmotto.cycle import LABEL_FIELDS, REPORT_FIELDS
from nmotto.errors import ConfigError
from nmotto.kernels import MAX_GRID_NODES
from nmotto.sweep import CSV_HEADER, run_cycle, run_phase, run_sweep, write_cycle_csv

from conftest import (CONFIGS, PHASE_HEADER, SRC, SWEEP_HEADER, base_config_dict,
                      phase_config_dict, read_records, read_rows, write_config)

PHASE_WITH_OPTIONS = phase_config_dict(lambda_c=0.0, omega_ratio={"min": 0.3, "max": 0.7, "n": 3},
                                       t_box={"t_max": 60.0, "n": 4}, h=0.1, dynamics="markov",
                                       workers=3)

# JSON-like values: numbers of every size (NaN, inf and integers far beyond
# the float range included), strings, lists and objects with schema sub-keys.
_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.integers(min_value=-10**400, max_value=10**400)
                 | st.floats() | st.floats(min_value=0.0, max_value=2.0) | st.text(max_size=6))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["min", "max", "n", "t_max", "sign_zero", "other"]), inner, max_size=4),
    max_leaves=8)
_CONFIG_KEYS = st.sampled_from([f.name for f in fields(nm.RunConfig)])

# Exceptions that are not package errors: raised in a cell, each stops the run.
PROGRAM_BUGS = [TypeError, ValueError, ZeroDivisionError]


class TestConfigParsing:
    def test_minimal_round_trip(self):
        cfg = parse_config(base_config_dict())
        again = parse_config(cfg.to_dict())
        assert cfg == again

    def test_sweep_range_round_trip(self):
        cfg = parse_config(base_config_dict(t_h={"min": 1.0, "max": 9.0, "n": 5}))
        assert cfg.t_h == nm.SweepRange(1.0, 9.0, 5)
        assert parse_config(cfg.to_dict()) == cfg
        assert cfg.t_h.values() == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="lambda_hot"):
            parse_config(base_config_dict(lambda_hot=0.01))
        with pytest.raises(ConfigError, match="out"):
            parse_config(base_config_dict(out="sweep.csv"))

    def test_missing_field_names_field(self):
        data = base_config_dict()
        del data["omega_h"]
        with pytest.raises(ConfigError, match="omega_h"):
            parse_config(data)

    def test_frequency_ordering(self):
        with pytest.raises(ConfigError, match="omega_c"):
            parse_config(base_config_dict(omega_c=2.0))

    def test_temperature_ordering(self):
        with pytest.raises(ConfigError, match="T_c"):
            parse_config(base_config_dict(T_c=3.0))

    def test_bad_dynamics(self):
        with pytest.raises(ConfigError, match="dynamics"):
            parse_config(base_config_dict(dynamics="exact"))

    def test_bad_workers(self):
        with pytest.raises(ConfigError, match="workers"):
            parse_config(base_config_dict(workers=0))

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError, match="t_c"):
            parse_config(base_config_dict(t_c=-1.0))

    def test_range_validation(self):
        with pytest.raises(ConfigError, match="t_h"):
            parse_config(base_config_dict(t_h={"min": 5.0, "max": 1.0, "n": 3}))
        with pytest.raises(ConfigError, match="t_h.n"):
            parse_config(base_config_dict(t_h={"min": 1.0, "max": 5.0, "n": 0}))
        with pytest.raises(ConfigError, match="t_h"):
            parse_config(base_config_dict(t_h={"min": 1.0, "max": 5.0, "n": 1}))

    def test_ratio_bounds(self):
        with pytest.raises(ConfigError, match="omega_ratio"):
            parse_config(base_config_dict(omega_ratio={"min": 0.2, "max": 1.0, "n": 3}))

    def test_tolerances_block(self):
        # the sign threshold is the fixed cycle.SIGN_EPS, not a config key
        for block in ({"sign_zero": 1e-10}, {}):
            with pytest.raises(ConfigError, match=re.escape("unknown key(s) ['tolerances']")):
                parse_config(base_config_dict(tolerances=block))

    def test_scalar_axes(self):
        cfg = parse_config(base_config_dict())
        assert sweep_axes(cfg) == ([60.0], [10.0])

    @pytest.mark.parametrize("key, value, path", [
        ("t_h", {"max": 5.0, "n": 3}, "t_h.min"),
        ("t_box", {"t_max": -1.0, "n": 2}, "t_box.t_max"),
        ("omega_ratio", {"min": 0.0, "max": 0.5, "n": 2}, "omega_ratio.min"),
        ("lambda_h", -1.0, "lambda_h"),
        ("t_h", {"min": 1.0, "max": 5.0, "n": 10**400}, "t_h.n"),
        ("t_c", {"min": 1.0, "max": 5.0, "n": MAX_GRID_NODES + 1}, "t_c.n"),
        ("omega_ratio", {"min": 0.3, "max": 0.7, "n": 10**400}, "omega_ratio.n"),
        ("t_box", {"t_max": 120.0, "n": MAX_GRID_NODES + 1}, "t_box.n"),
        ("workers", 10**400, "workers"),
    ], ids=["t_h.min", "t_box.t_max", "omega_ratio.min", "lambda_h",
            "t_h.n", "t_c.n", "omega_ratio.n", "t_box.n", "workers"])
    def test_error_names_full_key_path(self, key, value, path):
        with pytest.raises(ConfigError, match="^" + re.escape(path + ": ")):
            parse_config(base_config_dict(**{key: value}))

    def test_counts_are_bounded_by_the_grid_node_limit(self):
        cfg = parse_config(base_config_dict(t_h={"min": 1.0, "max": 5.0, "n": MAX_GRID_NODES},
                                            workers=MAX_GRID_NODES))
        assert cfg.t_h.n == cfg.workers == MAX_GRID_NODES
        with pytest.raises(ConfigError, match=re.escape("t_h.n: expected an integer in [1, 10000000]")):
            parse_config(base_config_dict(t_h={"min": 1.0, "max": 5.0, "n": MAX_GRID_NODES + 1}))

    @pytest.mark.parametrize("key, value, path", [
        ("omega_h", 10**400, "omega_h"),
        ("t_c", 10**400, "t_c"),
        ("lambda_c", -10**400, "lambda_c"),
        ("t_h", {"min": 1.0, "max": 10**400, "n": 2}, "t_h.max"),
        ("omega_h", math.nan, "omega_h"),  # JSON's NaN and Infinity literals
        ("t_c", math.inf, "t_c"),
        ("lambda_c", -math.inf, "lambda_c"),
    ], ids=["omega_h", "t_c", "lambda_c", "t_h.max", "nan", "inf", "-inf"])
    def test_integer_beyond_float_range(self, key, value, path):
        with pytest.raises(ConfigError, match="^" + re.escape(path + ": must be finite")):
            parse_config(base_config_dict(**{key: value}))

    @pytest.mark.parametrize("data", [
        *(json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))),
        PHASE_WITH_OPTIONS,
    ], ids=[*(path.name for path in sorted(CONFIGS.glob("*.json"))), "phase_with_options"])
    def test_echo_round_trip(self, data):
        cfg = parse_config(data)
        echo = cfg.to_dict()
        assert data.items() <= echo.items()  # the echo drops no key
        assert parse_config(echo) == cfg

    @settings(max_examples=200)
    @given(overrides=st.dictionaries(_CONFIG_KEYS, _JSON_SCALARS | _JSON_VALUES, max_size=4),
           root=_JSON_VALUES)
    def test_any_json_input_fails_only_as_config_error(self, overrides, root):
        for data in (base_config_dict(**overrides), root):
            try:
                parse_config(data)
            except ConfigError:
                pass


class TestStroke:
    def test_each_stroke_reads_its_own_keys(self):
        cfg = parse_config(base_config_dict())
        assert cfg.stroke("hot") == (nm.BathSpec(cfg.lambda_h, cfg.Omega_h, cfg.T_h), cfg.omega_h)
        assert cfg.stroke("cold") == (nm.BathSpec(cfg.lambda_c, cfg.Omega_c, cfg.T_c), cfg.omega_c)

    def test_rejects_a_label_other_than_hot_or_cold(self):
        with pytest.raises(ConfigError, match="bath must be 'hot' or 'cold', got 'warm'"):
            parse_config(base_config_dict()).stroke("warm")

    @pytest.mark.parametrize("key", ["omega_c", "T_c"])
    def test_names_a_missing_cold_key(self, key):
        data = {k: v for k, v in base_config_dict().items() if k != key}
        cfg = parse_config(data)
        assert cfg.stroke("hot")[1] == cfg.omega_h
        with pytest.raises(ConfigError, match=f"^{key}: required for the cold stroke$"):
            cfg.stroke("cold")


class TestRunCycle:
    def test_deterministic_csv(self, tmp_path):
        cfg = parse_config(base_config_dict())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cycle_csv(run_cycle(cfg), str(a))
        write_cycle_csv(run_cycle(cfg), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_markov_flag(self):
        rep = run_cycle(parse_config(base_config_dict(dynamics="markov")))
        assert rep.mode is nm.Mode.ENGINE
        assert rep.dE_I_h == 0.0 and rep.dE_I_c == 0.0

    def test_weak_coupling_scales_energies_down(self):
        rep = run_cycle(parse_config(base_config_dict(lambda_h=1e-9, lambda_c=1e-9)))
        for value in (rep.dE_S_h, rep.dE_B_h, rep.dE_I_h, rep.dE_S_c, rep.dE_B_c,
                      rep.dE_I_c, rep.W_total):
            assert abs(value) < 1e-6

    def test_reference_point_is_heat_pump_at_short_cold_stroke(self):
        rep = run_cycle(parse_config(base_config_dict(t_c=1.0)))
        assert rep.mode is nm.Mode.HEAT_PUMP

    def test_sweep_ranges_rejected_for_single_cycle(self):
        cfg = parse_config(base_config_dict(t_h={"min": 1.0, "max": 2.0, "n": 2}))
        with pytest.raises(ConfigError, match="t_h"):
            run_cycle(cfg)


class TestCycleContext:
    def test_pickled_context_carries_its_tables(self, monkeypatch):
        cfg = parse_config(base_config_dict())
        ctx = nm.build_context(cfg, 60.0, 10.0)
        expected = nm.evaluate_cycle(ctx, 60.0, 10.0)

        def no_solve(*args):
            raise AssertionError("an unpickled context solves no stroke")

        monkeypatch.setattr(nm.dynamics, "cumulative_simpson", no_solve)
        assert nm.evaluate_cycle(pickle.loads(pickle.dumps(ctx)), 60.0, 10.0) == expected

    def test_pickled_markov_context_evaluates_equal(self, markov_context):
        # A Markov stroke keeps its frequency, stationary population, rate and
        # kept reads, not its bath.
        for stroke in (markov_context.hot_grid, markov_context.cold_grid):
            assert vars(stroke).keys() == {"omega0", "stationary", "rate", "_reads"}
        copy = pickle.loads(pickle.dumps(markov_context))
        assert copy == markov_context
        for t_h, t_c in ((60.0, 10.0), (5.0, 66.0)):
            assert nm.evaluate_cycle(copy, t_h, t_c) == nm.evaluate_cycle(markov_context, t_h, t_c)

    @pytest.mark.parametrize("t_h", [0.0, float("nan"), float("inf"), -1.0])
    def test_markov_context_validates_stroke_times(self, markov_context, t_h):
        with pytest.raises(ValueError, match="t_h"):
            nm.evaluate_cycle(markov_context, t_h, 10.0)

    @pytest.mark.parametrize("t_c", [0.0, float("nan"), float("inf"), -1.0])
    def test_markov_context_validates_cold_stroke_time(self, markov_context, t_c):
        with pytest.raises(ValueError, match="^t_c must be finite and > 0"):
            nm.evaluate_cycle(markov_context, 60.0, t_c)

    def test_a_bare_grid_is_not_a_stroke(self, hot_bath, cold_bath):
        # a program error: it propagates rather than being read as physics
        ctx = nm.CycleContext(omega_h=1.0, omega_c=0.5,
                              hot_grid=nm.build_kernel_grid(hot_bath, 1.0, 20.0),
                              cold_grid=nm.build_kernel_grid(cold_bath, 0.5, 20.0))
        with pytest.raises(AttributeError):
            nm.evaluate_cycle(ctx, 10.0, 10.0)
        assert not issubclass(AttributeError, nm.NmottoError)


@pytest.fixture(scope="module")
def small_cfg():
    return parse_config(base_config_dict(
        t_h={"min": 20.0, "max": 120.0, "n": 6},
        t_c={"min": 4.0, "max": 120.0, "n": 6},
    ))


class TestRunSweep:

    def test_header_is_pinned(self, small_cfg, tmp_path):
        run_sweep(small_cfg, str(tmp_path / "s.csv"))
        first = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert first == SWEEP_HEADER

    def test_row_major_order_and_determinism(self, small_cfg, tmp_path):
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        run_sweep(small_cfg, str(p1))
        run_sweep(small_cfg, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        rows = read_records(p1)
        assert len(rows) == 36
        t_h = [float(r["t_h"]) for r in rows]
        assert t_h == sorted(t_h)
        assert [float(r["t_c"]) for r in rows[:6]] == sorted({float(r["t_c"]) for r in rows})

    @pytest.mark.parametrize("dynamics", ["tcl2", "markov"])
    def test_worker_count_does_not_change_bytes(self, small_cfg, tmp_path, dynamics):
        p1, p4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        run_sweep(replace(small_cfg, dynamics=dynamics, workers=1), str(p1))
        run_sweep(replace(small_cfg, dynamics=dynamics, workers=4), str(p4))
        assert p1.read_bytes() == p4.read_bytes()

    def test_single_cell_sweep_equals_cycle(self, tmp_path):
        cfg = parse_config(base_config_dict())
        sweep_path, cycle_path = tmp_path / "sweep.csv", tmp_path / "cycle.csv"
        run_sweep(cfg, str(sweep_path))
        write_cycle_csv(run_cycle(cfg), str(cycle_path))
        assert sweep_path.read_bytes() == cycle_path.read_bytes()

    def test_values_have_full_precision(self, small_cfg, tmp_path):
        run_sweep(small_cfg, str(tmp_path / "p.csv"))
        row = read_records(tmp_path / "p.csv")[0]
        ctx_value = float(row["dE_S_h"])
        rep = nm.evaluate_cycle(
            nm.build_context(small_cfg, 120.0, 120.0), float(row["t_h"]), float(row["t_c"]))
        assert ctx_value == rep.dE_S_h

    def test_sign_change_curves_exist_in_box(self, small_cfg, tmp_path):
        run_sweep(small_cfg, str(tmp_path / "box.csv"))
        rows = read_records(tmp_path / "box.csv")
        w = np.array([float(r["W_total"]) for r in rows])
        des_c = np.array([float(r["dE_S_c"]) for r in rows])
        assert (w > 0).any() and (w < 0).any()
        assert (des_c > 0).any() and (des_c < 0).any()

    def test_per_cell_failure_lands_in_error_column(self, tmp_path):
        # a decoupled cycle has no unique fixed point: every cell must
        # report the singular map, and the run must still complete
        cfg = parse_config(base_config_dict(
            lambda_h=0.0, lambda_c=0.0,
            t_h={"min": 1.0, "max": 2.0, "n": 2},
            t_c={"min": 1.0, "max": 2.0, "n": 2},
        ))
        run_sweep(cfg, str(tmp_path / "err.csv"))
        rows = read_rows(tmp_path / "err.csv")[1:]
        assert len(rows) == 4
        for row in rows:
            assert "SingularMapError" in row[-1]
            assert row[2] == ""

    @pytest.mark.parametrize("bug", PROGRAM_BUGS)
    def test_program_bug_propagates(self, small_cfg, tmp_path, monkeypatch, bug):
        # an exception that is not an NmottoError is a bug, not a per-cell physics failure
        def broken(ctx, t_h, t_c):
            raise bug("unsupported operand")

        monkeypatch.setattr(nm.sweep, "evaluate_cycle", broken)
        out = tmp_path / "bug.csv"
        with pytest.raises(bug, match="unsupported operand"):
            run_sweep(replace(small_cfg, workers=1), str(out))
        assert not out.exists()

    @pytest.mark.parametrize("workers, n_items, cpus, pool_size", [
        (100000, 6, 4, 4),     # capped by the usable CPUs
        (100000, 3, 64, 3),    # capped by the item count
        (3, 6, 64, 3),         # as asked
        (100000, 6, 1, None),  # one CPU: serial, no pool
        (100000, 1, 64, None), # one item: serial, no pool
    ])
    def test_pool_size_is_capped(self, monkeypatch, workers, n_items, cpus, pool_size):
        # a stand-in pool that maps serially: no process is ever started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, mp_context, initializer=None, initargs=()):
                sizes.append(max_workers)
                if initializer is not None:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(nm.sweep, "_worker_fn", None)  # restored after the test
        monkeypatch.setattr(nm.sweep.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        items = list(range(-n_items, 0))
        assert list(nm.sweep._map(abs, items, workers)) == [abs(i) for i in items]
        assert sizes == ([] if pool_size is None else [pool_size])


class _CountedPickles:
    """A payload that counts how often this process pickles it."""

    pickles = 0

    def __reduce__(self):
        type(self).pickles += 1
        return _CountedPickles, ()


def _doubled(payload, x):
    return 2 * x


class TestPool:
    def test_mapped_callable_reaches_workers_unpickled(self, monkeypatch):
        monkeypatch.setattr(nm.sweep, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(_CountedPickles, "pickles", 0)
        items = list(range(9))
        fn = partial(_doubled, _CountedPickles())
        assert list(nm.sweep._map(fn, items, 2)) == [2 * x for x in items]
        assert _CountedPickles.pickles == 0

    def test_a_serial_run_imports_no_pool(self, tmp_path):
        # The pool modules load only when a pool runs; a fresh interpreter
        # that imports the package and runs a serial sweep never loads them.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cfg = write_config(tmp_path / "sweep.json", base_config_dict(
            t_h={"min": 1.0, "max": 2.0, "n": 2}, t_c={"min": 1.0, "max": 2.0, "n": 2}, workers=1))
        code = ("import sys, nmotto, nmotto.cli\n"
                "loaded = lambda: [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
                "print(loaded())\n"
                "assert nmotto.cli.main(['sweep', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
                "print(loaded())\n")
        done = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "s.csv")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "[]"]
        assert (tmp_path / "s.csv").read_text().count("\n") == 1 + 4


class TestRunPhase:
    @pytest.mark.parametrize("bug", PROGRAM_BUGS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_program_bug_propagates(self, tmp_path, monkeypatch, workers, bug):
        def broken(ctx, t_h, t_c):
            raise bug("unsupported operand")

        monkeypatch.setattr(nm.sweep, "evaluate_cycle", broken)
        cfg = parse_config(phase_config_dict())
        with pytest.raises(bug, match="unsupported operand"):
            run_phase(replace(cfg, workers=workers), str(tmp_path / "bug.csv"))

    @pytest.mark.parametrize("key, dynamics, error", [
        ("omega_h", "markov", "ConfigError: omega_c: must be > 0"),
        ("omega_h", "tcl2", "ConfigError: omega_c: must be > 0"),
        ("T_h", "tcl2", "ConfigError: T_c: must be > 0"),
    ], ids=["omega_h-markov", "omega_h-tcl2", "T_h-tcl2"])
    def test_a_derived_cold_value_is_checked_like_a_config_file(self, tmp_path, key, dynamics, error):
        # 0.5 * omega_h and 0.2 * T_h round to 0, which the cell's config
        # fails at parse_config, as a config file would
        cfg = parse_config(phase_config_dict(dynamics=dynamics, **{key: 5e-324}))
        out = tmp_path / "edge.csv"
        run_phase(cfg, str(out))
        (row,) = read_records(out)
        assert row["error"] == error
        assert row["classification"] == ""

    def test_small_phase_diagram(self, tmp_path):
        cfg = parse_config(phase_config_dict(T_ratio={"min": 0.2, "max": 0.8, "n": 2},
                                             t_box={"t_max": 90.0, "n": 3}, dynamics="tcl2"))
        run_phase(cfg, str(tmp_path / "phase.csv"))
        cells = read_records(tmp_path / "phase.csv")
        assert len(cells) == 2
        by_ratio = {float(c["T_ratio"]): c for c in cells}
        # efficient corner mixes modes; inverted corner cannot run as an engine
        assert int(by_ratio[0.2]["engine"]) > 0
        assert int(by_ratio[0.8]["engine"]) == 0
        header = (tmp_path / "phase.csv").read_text().splitlines()[0]
        assert header == PHASE_HEADER

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = parse_config(phase_config_dict(omega_ratio={"min": 0.3, "max": 0.7, "n": 2},
                                             T_ratio={"min": 0.2, "max": 0.6, "n": 2},
                                             t_box={"t_max": 60.0, "n": 3}))
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        run_phase(replace(cfg, workers=1), str(p1))
        run_phase(replace(cfg, workers=2), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_per_cell_failure_lands_in_error_column(self, tmp_path):
        # a decoupled cycle has no unique fixed point: each ratio cell reports
        # the singular map once, under its own type name
        cfg = parse_config(phase_config_dict(lambda_h=0.0, lambda_c=0.0,
                                             T_ratio={"min": 0.2, "max": 0.4, "n": 2}))
        out = tmp_path / "err.csv"
        run_phase(cfg, str(out))
        rows = read_records(out)
        assert len(rows) == 2
        for row in rows:
            assert row["error"].startswith("SingularMapError: ")
            assert row["error"].count("Error: ") == 1
            assert row["classification"] == ""

    def test_failure_keeps_the_counts_so_far(self, tmp_path, monkeypatch):
        # the third of the cell's four (t_h, t_c) pairs fails: the two pairs
        # counted before it stay, and the cell gets no classification
        evaluate = nm.sweep.evaluate_cycle
        calls = []

        def third_fails(ctx, t_h, t_c):
            calls.append((t_h, t_c))
            if len(calls) == 3:
                raise nm.SingularMapError("third pair")
            return evaluate(ctx, t_h, t_c)

        monkeypatch.setattr(nm.sweep, "evaluate_cycle", third_fails)
        cfg = parse_config(phase_config_dict())
        out = tmp_path / "partial.csv"
        run_phase(cfg, str(out))
        (row,) = read_records(out)
        assert sum(int(row[mode]) for mode in ("engine", "heater", "heat_pump", "other")) == 2
        assert row["classification"] == ""
        assert row["error"] == "SingularMapError: third pair"

    def test_markov_phase_is_engine_only_when_otto_efficient(self, tmp_path):
        cfg = parse_config(phase_config_dict(t_box={"t_max": 90.0, "n": 4}, dynamics="markov"))
        run_phase(cfg, str(tmp_path / "mphase.csv"))
        cells = read_records(tmp_path / "mphase.csv")
        assert cells[0]["classification"] == "engine_only"

    def test_single_cell_phase_matches_sweep_summary(self, tmp_path):
        t_box = {"t_max": 80.0, "n": 4}
        phase_cfg = parse_config(phase_config_dict(t_box=t_box))
        run_phase(phase_cfg, str(tmp_path / "cell.csv"))
        times = nm.TimeBox(**t_box).values()
        sweep_cfg = parse_config(base_config_dict(
            t_h={"min": times[0], "max": times[-1], "n": len(times)},
            t_c={"min": times[0], "max": times[-1], "n": len(times)},
        ))
        run_sweep(sweep_cfg, str(tmp_path / "cell_sweep.csv"))
        modes = [row[17] for row in read_rows(tmp_path / "cell_sweep.csv")[1:]]
        counts = read_records(tmp_path / "cell.csv")[0]
        for label, column in (("Engine", "engine"), ("Heater", "heater"),
                              ("HeatPump", "heat_pump"), ("Other", "other")):
            assert int(counts[column]) == modes.count(label)

    def test_phase_requires_ratio_axes(self, tmp_path):
        cfg = parse_config(base_config_dict())
        with pytest.raises(ConfigError, match="omega_ratio"):
            run_phase(cfg, str(tmp_path / "x.csv"))


_QUOTED_MESSAGE = 'a, "b"\nc'

_SMALL_PHASE = phase_config_dict(omega_ratio={"min": 0.3, "max": 0.7, "n": 2},
                                 T_ratio={"min": 0.2, "max": 0.4, "n": 2})


def _rewritten(path) -> bytes:
    """The file's rows parsed and written back by csv.writer."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(read_rows(path))
    return buf.getvalue().encode()


class TestCsvText:
    def test_error_column_survives_quoting_in_a_sweep(self, small_cfg, tmp_path, monkeypatch):
        evaluate = nm.sweep.evaluate_cycle
        t_h_values, t_c_values = sweep_axes(small_cfg)

        def one_cell_fails(ctx, t_h, t_c):
            if (t_h, t_c) == (t_h_values[2], t_c_values[3]):
                raise nm.SingularMapError(_QUOTED_MESSAGE)
            return evaluate(ctx, t_h, t_c)

        monkeypatch.setattr(nm.sweep, "evaluate_cycle", one_cell_fails)
        out = tmp_path / "quoted.csv"
        run_sweep(replace(small_cfg, workers=1), str(out))
        rows = read_records(out)
        errors = [row["error"] for row in rows if row["error"]]
        assert errors == [f"SingularMapError: {_QUOTED_MESSAGE}"]
        assert out.read_bytes() == _rewritten(out)

    def test_error_column_survives_quoting_in_a_phase_diagram(self, tmp_path, monkeypatch):
        evaluate = nm.sweep.evaluate_cycle

        def one_ratio_fails(ctx, t_h, t_c):
            if ctx.omega_c == 0.7:
                raise nm.SingularMapError(_QUOTED_MESSAGE)
            return evaluate(ctx, t_h, t_c)

        monkeypatch.setattr(nm.sweep, "evaluate_cycle", one_ratio_fails)
        out = tmp_path / "quoted_phase.csv"
        run_phase(parse_config(dict(_SMALL_PHASE, workers=1)), str(out))
        rows = read_records(out)
        assert [row["error"] for row in rows] == ["", ""] + [f"SingularMapError: {_QUOTED_MESSAGE}"] * 2
        assert out.read_bytes() == _rewritten(out)

    def test_numbers_round_trip_at_17_digits(self, tmp_path):
        out = tmp_path / "small.csv"
        run_sweep(load_config(str(CONFIGS / "sweep_small.json")), str(out))
        rows = read_rows(out)[1:]
        n_numbers = len(REPORT_FIELDS) - len(LABEL_FIELDS)
        numbers = [x for row in rows for x in row[:n_numbers] if x]
        assert len(rows) == 144 and len(numbers) > 144 * (n_numbers - 4)
        for x in numbers:
            assert format(float(x), ".17g") == x
        assert out.read_bytes() == _rewritten(out)

    def test_report_line_matches_the_field_by_field_row(self, small_cfg):
        # the one-format line against the csv.writer row of _fmt fields, on
        # a real report and on reports with nan, inf, -0 and absent values
        report = nm.evaluate_cycle(nm.build_context(small_cfg, 60.0, 10.0), 60.0, 10.0)
        reports = [report, report._replace(dE_S_h=float("nan"), dE_B_h=float("inf"),
                                           dE_I_h=float("-inf"), W_total=-0.0, t_c=5e-324),
                   report._replace(eta=None), report._replace(alpha_h=None, cop=None)]
        for rep in reports:
            row = [nm.sweep._fmt(getattr(rep, name)) for name in REPORT_FIELDS
                   if name not in LABEL_FIELDS]
            row += [getattr(rep, name).value for name in LABEL_FIELDS] + [""]
            assert nm.sweep._report_line(rep) == nm.sweep._csv_line(row)


class TestOutputFile:
    """`out` is replaced only by a complete file; a run that raises after
    writing some rows leaves it as it was."""

    @staticmethod
    def _failing_run(kind, small_cfg, workers, monkeypatch, out):
        evaluate = nm.sweep.evaluate_cycle
        if kind == "sweep":
            runner, config = run_sweep, replace(small_cfg, workers=workers)
            t_h_values, t_c_values = sweep_axes(small_cfg)
            last_cell = (t_h_values[-1], t_c_values[-1])

            def is_late(ctx, t_h, t_c):
                return (t_h, t_c) == last_cell
        else:
            runner, config = run_phase, parse_config(dict(_SMALL_PHASE, workers=workers))

            def is_late(ctx, t_h, t_c):  # every cell of the last omega-ratio row
                return ctx.omega_c == 0.7
        part_sizes = []

        def late_bug(ctx, t_h, t_c):
            if is_late(ctx, t_h, t_c):
                part_sizes.append(os.path.getsize(f"{os.path.realpath(out)}.part"))
                raise TypeError("unsupported operand")
            return evaluate(ctx, t_h, t_c)

        monkeypatch.setattr(nm.sweep, "evaluate_cycle", late_bug)
        with pytest.raises(TypeError, match="unsupported operand"):
            runner(config, str(out))
        return part_sizes

    @pytest.mark.parametrize("kind", ["sweep", "phase"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_output_and_no_part_file(self, small_cfg, tmp_path, monkeypatch, kind, workers):
        out = tmp_path / "bug.csv"
        part_sizes = self._failing_run(kind, small_cfg, workers, monkeypatch, out)
        if workers == 1 and kind == "sweep":
            # five of six rows were already on disk when the bug was raised
            assert part_sizes[0] > len(CSV_HEADER) + 1
        assert not out.exists()
        assert not Path(f"{out}.part").exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["sweep", "phase"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_existing_output_is_unchanged(self, small_cfg, tmp_path, monkeypatch, kind, workers):
        out = tmp_path / "kept.csv"
        out.write_bytes(b"an earlier result\n")
        self._failing_run(kind, small_cfg, workers, monkeypatch, out)
        assert out.read_bytes() == b"an earlier result\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_written_in_place(self, tmp_path):
        # renaming a finished file onto a pipe (or /dev/stdout) would replace it
        cfg = parse_config(base_config_dict())
        report = run_cycle(cfg)
        write_cycle_csv(report, str(tmp_path / "cycle.csv"))
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_cycle_csv(report, str(pipe))
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert received == (tmp_path / "cycle.csv").read_bytes()
        assert pipe.is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cycle.csv", "pipe"]

    def test_a_symlink_is_followed_and_kept(self, small_cfg, tmp_path, monkeypatch):
        # the link's target gets the finished file; the link itself stays
        cfg = parse_config(base_config_dict())
        report = run_cycle(cfg)
        write_cycle_csv(report, str(tmp_path / "cycle.csv"))
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"an earlier result\n")
        link.symlink_to(target)
        write_cycle_csv(report, str(link))
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == (tmp_path / "cycle.csv").read_bytes()
        target.write_bytes(b"an earlier result\n")
        self._failing_run("sweep", small_cfg, 1, monkeypatch, link)
        assert link.is_symlink() and target.read_bytes() == b"an earlier result\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cycle.csv", "link.csv", "target.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_dev_stdout_redirected_to_a_file(self, tmp_path):
        # `--out /dev/stdout > f.csv`: f.csv gets the file, /dev/stdout stays
        cfg = str(CONFIGS / "reference_cycle.json")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        direct, redirected = tmp_path / "direct.csv", tmp_path / "redirected.csv"
        stdout_was_link = os.path.islink("/dev/stdout")
        subprocess.run([sys.executable, "-m", "nmotto.cli", "cycle", "--config", cfg,
                        "--out", str(direct)], env=env, check=True)
        with open(redirected, "wb") as fh:
            subprocess.run([sys.executable, "-m", "nmotto.cli", "cycle", "--config", cfg,
                            "--out", "/dev/stdout"], env=env, check=True, stdout=fh)
        assert redirected.read_bytes() == direct.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["direct.csv", "redirected.csv"]
        assert os.path.islink("/dev/stdout") == stdout_was_link
        assert not os.path.exists("/dev/stdout.part")
