"""Every caller reads each stroke once per stroke time, with the per-read bits.

A stroke source, TCL2 or Markov, reads at the first `populations(t)` or
`flow(t)` (its `_read`, both pairs at once) and answers every later read at
t from what it kept.  So `run_sweep` and each phase cell read the hot stroke
once per t_h (or t_box) value and the cold stroke once per t_c (or t_box)
value, and a boundary search once per stroke time it evaluates.  The files
a run writes must be the text that a per-cell `evaluate_cycle` on
`build_context`'s context gives, and a search must find the crossings of
strokes that read their tables at every call.
"""

from dataclasses import replace
from itertools import product

import pytest

import nmotto as nm
from nmotto.config import parse_config, sweep_axes
from nmotto.cycle import Mode
from nmotto.sweep import (CSV_HEADER, PHASE_HEADER, _csv_line, _error_line, _fmt, _report_line,
                          run_phase, run_sweep)

from conftest import CONFIGS, T_HOT_STROKE, base_config_dict, phase_config_dict

# Axes off the grid nodes (step 0.05): every read interpolates between nodes.
OFF_NODE = {"t_h": {"min": 3.33, "max": 97.01, "n": 5}, "t_c": {"min": 1.17, "max": 55.55, "n": 4}}
# A t_c axis of one stroke time, three times over.
REPEATED = {"t_h": {"min": 3.33, "max": 97.01, "n": 5}, "t_c": {"min": 7.77, "max": 7.77, "n": 3}}
SWEEPS = {
    "tcl2": base_config_dict(**OFF_NODE),
    "tcl2-repeated": base_config_dict(**REPEATED),
    "decoupled": base_config_dict(lambda_h=0.0, lambda_c=0.0, **OFF_NODE),
    "markov": base_config_dict(dynamics="markov", **OFF_NODE),
}
PHASES = {
    dynamics: phase_config_dict(omega_ratio={"min": 0.3, "max": 0.7, "n": 2},
                                t_box={"t_max": 61.7, "n": 3},  # t = 20.566..., 41.133..., 61.7
                                dynamics=dynamics)
    for dynamics in ("tcl2", "markov")
}


def _per_cell_sweep_text(config):
    t_h_values, t_c_values = sweep_axes(config)
    ctx = nm.build_context(config, max(t_h_values), max(t_c_values))
    lines = [CSV_HEADER + "\n"]
    for t_h, t_c in product(t_h_values, t_c_values):
        try:
            lines.append(_report_line(nm.evaluate_cycle(ctx, t_h, t_c)))
        except nm.NmottoError as exc:
            lines.append(_error_line(t_h, t_c, exc))
    return "".join(lines)


def _per_cell_phase_text(config):
    t_values = config.t_box.values()
    lines = [PHASE_HEADER + "\n"]
    for r_omega, r_temp in product(config.omega_ratio.values(), config.T_ratio.values()):
        cell = parse_config({**config.to_dict(), "omega_c": r_omega * config.omega_h,
                             "T_c": r_temp * config.T_h})
        ctx = nm.build_context(cell, max(t_values), max(t_values))
        modes = [nm.evaluate_cycle(ctx, t_h, t_c).mode for t_h, t_c in product(t_values, t_values)]
        counts = [modes.count(mode) for mode in Mode]
        classification = "engine_only" if counts[0] == len(modes) else "mixed"
        lines.append(_csv_line([_fmt(r_omega), _fmt(r_temp), *map(str, counts), classification, ""]))
    return "".join(lines)


@pytest.fixture()
def stroke_reads(monkeypatch):
    """The stroke times of every stroke read (each source's `_read`) in this process."""
    times = []
    for source in (nm.StrokeTables, nm.MarkovStroke):
        def counted(stroke, t, read=source._read):
            times.append(t)
            return read(stroke, t)

        monkeypatch.setattr(source, "_read", counted)
    return times


@pytest.mark.parametrize("name", ["tcl2", "tcl2-repeated", "markov"])
def test_a_sweep_reads_each_stroke_once_per_stroke_time(stroke_reads, tmp_path, name):
    config = replace(parse_config(SWEEPS[name]), workers=1)
    t_h_values, t_c_values = sweep_axes(config)
    run_sweep(config, str(tmp_path / "sweep.csv"))
    # populations and flow together, once at each distinct t_h and each distinct t_c
    assert len(stroke_reads) == len(set(t_h_values)) + len(set(t_c_values))
    assert sorted(stroke_reads) == sorted([*set(t_h_values), *set(t_c_values)])


def test_a_phase_cell_reads_each_stroke_once_per_box_time(stroke_reads, tmp_path):
    config = replace(parse_config(PHASES["tcl2"]), workers=1)
    run_phase(config, str(tmp_path / "phase.csv"))
    # two ratio cells, each reading both strokes once at every t_box value
    assert len(stroke_reads) == 2 * 2 * len(config.t_box.values())


def test_a_phase_run_computes_each_noise_kernel_once(monkeypatch, noise_builds, tmp_path):
    # The cells share D1 by (bath, step, n_points): one hot bath and one cold
    # bath per T ratio.  Each cell still builds its hot and cold grid, which
    # perfbench's `kernels.grids_built` counts.
    config = replace(nm.load_config(str(CONFIGS / "phase_small.json")), workers=1)
    builds, build_kernel_grid = [], nm.sweep.build_kernel_grid

    def counted_build(*args):
        builds.append(args)
        return build_kernel_grid(*args)

    monkeypatch.setattr(nm.sweep, "build_kernel_grid", counted_build)
    run_phase(config, str(tmp_path / "phase.csv"))
    t_ratios = config.T_ratio.values()
    assert len(builds) == 2 * len(config.omega_ratio.values()) * len(t_ratios) == 18
    assert len(noise_builds) == len(set(noise_builds)) == 1 + len(t_ratios) == 4  # one cache block each
    assert sorted(bath.temperature for bath in noise_builds) == sorted(
        [config.T_h, *(r * config.T_h for r in t_ratios)])


class _EveryRead:
    """A TCL2 stroke that reads its tables at every call."""

    def __init__(self, stroke):
        self.stroke, self.omega0 = stroke, stroke.omega0

    def populations(self, t):
        return self.stroke._read(t)[0]

    def flow(self, t):
        return self.stroke._read(t)[1]


def test_a_boundary_search_reads_each_stroke_once_per_stroke_time(stroke_reads):
    ctx = nm.build_context(parse_config(base_config_dict()), T_HOT_STROKE, 120.0)
    evaluated = []

    def evaluate(t_c):
        evaluated.append(t_c)
        return nm.evaluate_cycle(ctx, T_HOT_STROKE, t_c)

    found = nm.find_boundaries(evaluate, 0.5, 120.0, 0.5)
    # populations and flow together, once at t_h and once at each t_c the search evaluated
    assert len(stroke_reads) == 1 + len(set(evaluated))
    every_read = nm.CycleContext(omega_h=ctx.omega_h, omega_c=ctx.omega_c,
                                 hot_grid=_EveryRead(ctx.hot_grid), cold_grid=_EveryRead(ctx.cold_grid))
    expected = nm.find_boundaries(lambda t_c: nm.evaluate_cycle(every_read, T_HOT_STROKE, t_c),
                                  0.5, 120.0, 0.5)
    assert None not in found
    assert [t.hex() for t in found] == [t.hex() for t in expected]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_a_sweep_writes_the_per_cell_text(tmp_path, name, workers):
    config = replace(parse_config(SWEEPS[name]), workers=workers)
    run_sweep(config, str(tmp_path / "sweep.csv"))
    text = (tmp_path / "sweep.csv").read_text()
    assert text == _per_cell_sweep_text(config)
    if name == "decoupled":  # a decoupled cycle has no unique fixed point
        assert all(line.split(",")[-1].startswith("SingularMapError: ")
                   for line in text.splitlines()[1:])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dynamics", sorted(PHASES))
def test_a_phase_diagram_writes_the_per_cell_text(tmp_path, dynamics, workers):
    config = replace(parse_config(PHASES[dynamics]), workers=workers)
    run_phase(config, str(tmp_path / "phase.csv"))
    assert (tmp_path / "phase.csv").read_text() == _per_cell_phase_text(config)
