"""Runs against their checked-in outputs: the sweep of configs/sweep_small.json,
the phase diagram of configs/phase_small.json, the JSON report and the cold
kernel and stroke dumps of configs/reference_cycle.json, and one cycle whose
hot grid spans several cache blocks.

These are the guards of every refactor of the cell path, under both
dynamics, of the kernel tables (trigamma included) and of the cache-blocked
table build.  Numbers are compared
within 1e-12 relative (1e-15 absolute), so that the last-ulp differences of
another numpy build pass; everything else (header, labels, empty fields,
phase counts and classification, JSON nulls, the error column) must match
exactly.
"""

import json
import math

import numpy as np
import pytest

import nmotto as nm
from nmotto.cycle import LABEL_FIELDS

from conftest import CONFIGS, DATA, read_rows

TEXT_FIELDS = set(LABEL_FIELDS) | {"error"}
PHASE_TEXT_FIELDS = {"engine", "heater", "heat_pump", "other", "classification", "error"}


def _same_number(got, want):
    return got == want or math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def _same_field(name, got, want, text_fields):
    if name in text_fields or got == want or "" in (got, want):
        return got == want
    return _same_number(float(got), float(want))


def _assert_matches_reference(got_path, want_path, text_fields=TEXT_FIELDS):
    want = read_rows(want_path)
    got = read_rows(got_path)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        assert len(got_row) == len(want_row)
        bad = [(name, g, w) for name, g, w in zip(want[0], got_row, want_row)
               if not _same_field(name, g, w, text_fields)]
        assert not bad, (want_row[:2], bad)


@pytest.mark.parametrize("dynamics", ["tcl2", "markov"])
def test_sweep_small_matches_the_reference_output(tmp_path, dynamics):
    config = nm.load_config(str(CONFIGS / "sweep_small.json"))
    config = nm.parse_config({**config.to_dict(), "dynamics": dynamics, "workers": 1})
    out = tmp_path / "sweep.csv"
    nm.run_sweep(config, str(out))
    _assert_matches_reference(out, DATA / f"sweep_small_{dynamics}.csv")


def test_multiblock_cycle_matches_the_reference_output(tmp_path):
    # lambda_h 0.05 and t_h 12000: 240001 hot nodes, several cache blocks,
    # and max|A| ~ 670, so the overflow-guarded propagation runs too.
    config = nm.load_config(str(DATA / "multiblock_cycle.json"))
    ctx = nm.build_context(config, config.t_h, config.t_c)
    hot = ctx.hot_grid
    assert hot.n_points == 240001
    assert np.max(np.abs(nm.build_kernel_grid(hot.bath, hot.omega0, config.t_h, hot.step).A)) > 500.0
    out = tmp_path / "cycle.csv"
    nm.sweep.write_cycle_csv(nm.evaluate_cycle(ctx, config.t_h, config.t_c), str(out))
    _assert_matches_reference(out, DATA / "multiblock_cycle.csv")


@pytest.mark.parametrize("command", ["kernels", "stroke"])
def test_cold_dump_matches_the_reference_output(tmp_path, command):
    # `nmotto kernels --bath cold` and `nmotto stroke --bath cold --rho00 1.0`
    config = nm.load_config(str(CONFIGS / "reference_cycle.json"))
    out = tmp_path / f"{command}.csv"
    if command == "kernels":
        nm.sweep.write_kernel_csv(config, str(out), "cold")
    else:
        nm.sweep.write_trace_csv(config, str(out), "cold", 1.0)
    _assert_matches_reference(out, DATA / f"reference_{command}_cold.csv")


def test_phase_small_matches_the_reference_output(tmp_path):
    # the mode counts come from the CycleReports of every t_box cell
    config = nm.load_config(str(CONFIGS / "phase_small.json"))
    out = tmp_path / "phase.csv"
    nm.run_phase(nm.parse_config({**config.to_dict(), "workers": 1}), str(out))
    _assert_matches_reference(out, DATA / "phase_small.csv", PHASE_TEXT_FIELDS)


def test_reference_cycle_json_matches_the_reference_output(tmp_path):
    config = nm.load_config(str(CONFIGS / "reference_cycle.json"))
    out = tmp_path / "cycle.json"
    nm.sweep.write_cycle_csv(nm.run_cycle(config), str(tmp_path / "cycle.csv"), str(out))
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((DATA / "reference_cycle_report.json").read_text(encoding="utf-8"))
    assert list(got) == list(want)
    # numbers within the tolerance; labels and nulls (absent alpha, eta, cop) exactly
    bad = [(name, got[name], value) for name, value in want.items()
           if type(got[name]) is not type(value)
           or not (_same_number(got[name], value) if type(value) is float else got[name] == value)]
    assert not bad
