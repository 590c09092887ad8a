"""Batch runners: single cycles, (t_h, t_c) sweeps, ratio phase diagrams.

The kernel grids depend only on (bath, qubit frequency, t_max, step), so one
pair of strokes is built per sweep and per phase cell (`stroke_tables`: a
grid, its traces and its flow prefixes).  D1 does not depend on the qubit
frequency, so a phase run's cells share one dict of D1 tables and compute
D1 once per distinct bath (a pool worker fills its own).  A stroke lets each
grid table go as soon as nothing more is taken from it: b and A once the
traces are solved, D1 once the flow prefixes are taken (unless a phase run
keeps it).  A cell reads the hot stroke at t_h only and the cold stroke at
t_c only, and either stroke source reads once per stroke time
(`dynamics.StrokeSource`), so a sweep, and each phase cell over its t_box,
reads each stroke once per distinct stroke time of its axis.  Every
batch is one lazy ordered map (`_map`): a sweep maps over its t_h values,
each to one block of CSV text holding that row's t_c cells, and a phase
diagram over its (omega ratio, T ratio) cells, each to its CSV line.  The
map runs serially or across a process pool; the text comes back in input
order and is written as it arrives, so parallel runs are byte-identical to
serial ones and a serial sweep holds one t_h row in memory.  Every file is
written to `<out>.part` and renamed onto `<out>` once complete: a run that
raises leaves `<out>` as it was.  The file is the run's only result (the
runners return nothing), and the pool size is the config's `workers`.  A
cell's failure is a package error (`NmottoError`: a singular map, a rejected
grid, or a config value that a phase cell derives); it lands in the CSV
error column and the run continues.  Any other exception is a program fault
and stops the run.

The dumps write one stroke's grid: `write_kernel_csv` its tables and
`write_trace_csv` its population from a given start, the one place the mix
of the two transition traces is formed.  A dump forms its node times, and
whatever else the grid does not keep (D2, the mix), and writes their text,
one slice of rows at a time; the rate a, whose prefix needs the whole
integrand, is its one extra table, filled one cache block at a time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Optional, get_type_hints

import numpy as np

from . import energetics, limit_cycle
from .config import RunConfig, _time_axis, parse_config, require_scalar_times, sweep_axes
from .cycle import LABEL_FIELDS, REPORT_FIELDS, CycleReport, Mode, assemble_report
from .dynamics import StrokeSource, transition_traces
from .errors import ConfigError, NmottoError
from .kernels import BathSpec, KernelGrid, build_kernel_grid, dissipation_kernel, node_times
from .special import cache_blocks, cumulative_simpson

__all__ = [
    "CSV_HEADER",
    "CycleContext",
    "build_context",
    "evaluate_cycle",
    "run_cycle",
    "run_sweep",
    "run_phase",
    "stroke_tables",
    "write_cycle_csv",
    "write_kernel_csv",
    "write_trace_csv",
]

CSV_HEADER = ",".join(REPORT_FIELDS + ("error",))
PHASE_HEADER = "omega_ratio,T_ratio,engine,heater,heat_pump,other,classification,error"


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else format(value, ".17g")


# A CycleReport tuple holds its always-present numbers first, then the ones
# that may be None (alpha, eta, cop: an empty field), then its Enum labels; a
# None or a label among the first would fail loudly in the format.
_N_LABELS = len(LABEL_FIELDS)
_N_FLOATS = len(REPORT_FIELDS) - _N_LABELS - sum(
    hint == Optional[float] for hint in get_type_hints(CycleReport).values())
# "%.17g" % x is format(x, ".17g") byte for byte, nan, inf and -0 included.
_FLOATS_FORMAT = ",".join(["%.17g"] * _N_FLOATS)


@dataclass(frozen=True)
class CycleContext:
    """Everything one parameter point needs; immutable and picklable, tables included.

    `hot_grid` and `cold_grid` hold the strokes' sources (StrokeTables, or
    MarkovStroke under Markov dynamics), each of which reads once per stroke
    time for every caller; perfbench/checks.py reads these names.
    """

    omega_h: float
    omega_c: float
    hot_grid: StrokeSource
    cold_grid: StrokeSource


def stroke_tables(bath: BathSpec, omega0: float, t_max: float, step: Optional[float] = None,
                  noise_tables: Optional[dict] = None) -> energetics.StrokeTables:
    """One TCL2 stroke on the kernel grid of these inputs (`build_kernel_grid`'s):
    its transition traces, solved once, and its flow prefixes.

    The stroke holds the only reference to the grid, and drops it once the
    traces are solved: b and A go before the flow prefixes are allocated,
    and D1 once they are taken.  The stroke peaks at five tables and keeps
    four.  `noise_tables`, D1 arrays keyed by (bath, step, n_points), goes
    to the build; only `run_phase` passes one, and then D1 outlives the grid.
    """
    grid = build_kernel_grid(bath, omega0, t_max, step, noise_tables)
    traces = transition_traces(grid)
    bath, omega0, step, d1 = grid.bath, grid.omega0, grid.step, grid.D1
    del grid
    return energetics.bath_flow_tables(bath, omega0, step, d1, *traces)


def build_context(config: RunConfig, t_max_h: float, t_max_c: float,
                  noise_tables: Optional[dict] = None) -> CycleContext:
    """Build the two stroke sources of the configured dynamics for the requested box;
    `noise_tables`, D1 arrays keyed by (bath, step, n_points), goes to both
    TCL2 builds (only `run_phase` passes one)."""
    (hot, omega_h), (cold, omega_c) = config.stroke("hot"), config.stroke("cold")
    if config.dynamics == "markov":
        hot_stroke = energetics.MarkovStroke(hot, omega_h)
        cold_stroke = energetics.MarkovStroke(cold, omega_c)
    else:
        hot_stroke = stroke_tables(hot, omega_h, t_max_h, config.h, noise_tables)
        cold_stroke = stroke_tables(cold, omega_c, t_max_c, config.h, noise_tables)
    return CycleContext(omega_h=omega_h, omega_c=omega_c, hot_grid=hot_stroke, cold_grid=cold_stroke)


def evaluate_cycle(ctx: CycleContext, t_h: float, t_c: float) -> CycleReport:
    """One full cycle report at (t_h, t_c), whatever the strokes' dynamics."""
    lc = limit_cycle.fixed_point(t_h, t_c, ctx.hot_grid, ctx.cold_grid)
    hot = energetics.stroke_energetics(lc, "hot", ctx.hot_grid, t_h)
    cold = energetics.stroke_energetics(lc, "cold", ctx.cold_grid, t_c)
    return assemble_report(t_h, t_c, lc, ctx.omega_h, ctx.omega_c, hot, cold)


def run_cycle(config: RunConfig) -> CycleReport:
    t_h, t_c = require_scalar_times(config)
    ctx = build_context(config, t_h, t_c)
    return evaluate_cycle(ctx, t_h, t_c)


def _report_line(report: CycleReport) -> str:
    """One report's CSV line, error column empty.

    The labels are str Enum members, which str.join writes as their values.
    """
    return ",".join([_FLOATS_FORMAT % report[:_N_FLOATS],
                     *map(_fmt, report[_N_FLOATS:-_N_LABELS]),
                     *report[-_N_LABELS:], "\n"])


def _csv_line(row: list[str]) -> str:
    """One row through csv.writer: the only path that quotes (error texts)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()


def _error_line(t_h: float, t_c: float, exc: Exception) -> str:
    row = [_fmt(t_h), _fmt(t_c)] + [""] * (len(REPORT_FIELDS) - 2)
    row.append(f"{type(exc).__name__}: {exc}")
    return _csv_line(row)


def _sweep_chunk(ctx: CycleContext, t_c_values: list[float], t_h: float) -> str:
    """The CSV text of one t_h row of the sweep, t_c in axis order."""
    lines = []
    for t_c in t_c_values:
        try:
            report = evaluate_cycle(ctx, t_h, t_c)
        except NmottoError as exc:  # per-cell failure: record and continue
            lines.append(_error_line(t_h, t_c, exc))
        else:
            lines.append(_report_line(report))
    return "".join(lines)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity call on this platform
        return os.cpu_count() or 1


# The callable a pool worker maps, set once per worker by its initializer.
_worker_fn = None


def _set_worker_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(item):
    return _worker_fn(item)


def _map(fn, items: list, workers: int):
    """Lazily yield `fn` over `items` in input order, across up to `workers` processes.

    The pool is capped at the item count and the usable CPUs: a fork-context
    pool starts all its processes up front, whatever `workers` asks for.
    Each worker receives `fn` once, through the pool initializer (a forked
    worker inherits it unpickled), and the items go out one per task, so the
    parent holds only the results not yet written, not a worker's whole share.
    The pool modules are imported only when a pool runs, never by a serial run.
    """
    workers = min(workers, len(items), _usable_cpus())
    if workers <= 1:
        yield from map(fn, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    try:
        mp_ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix
        mp_ctx = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=workers, mp_context=mp_ctx,
                             initializer=_set_worker_fn, initargs=(fn,)) as pool:
        yield from pool.map(_call_worker_fn, items)


def _write_text(path: str, header: str, blocks) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(blocks)


def _write_csv(*files) -> None:
    """Each (path, header, blocks) of `files`: the header and the ready CSV
    text of `blocks`, written as they come.

    The text goes to `<path>.part`; the part files are renamed onto their
    paths only once all of them are complete.  On any exception every part
    file is removed and every path is left as it was.  A symlinked `path`
    (such as /dev/stdout redirected to a file) is followed: the part file
    sits next to the file it resolves to and replaces that file, so the link
    stays.  A `path` that resolves to something other than a regular file (a
    pipe or a device) is written in place: renaming onto it would replace it.
    """
    renames = []
    try:
        for path, header, blocks in files:
            if os.path.exists(path) and not os.path.isfile(path):
                _write_text(path, header, blocks)
                continue
            target = os.path.realpath(path)
            renames.append((target + ".part", target))
            _write_text(renames[-1][0], header, blocks)
        for part, target in renames:
            os.replace(part, target)
    except BaseException:
        for part, _ in renames:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)
        raise


# Rows per piece of a dump's columns and CSV text, whose rows cost several times their floats.
_TEXT_ROWS = 4096


def _column_blocks(n: int, step: float, columns):
    """The first n grid nodes as CSV text, _TEXT_ROWS rows at a time: each
    row is the node time tau, then the columns that `columns(rows, tau)`
    returns for the nodes of the slice `rows`."""
    for start in range(0, n, _TEXT_ROWS):
        rows = slice(start, min(start + _TEXT_ROWS, n))
        tau = node_times(rows, step)
        values = (tau, *columns(rows, tau))
        line = ",".join(["%.17g"] * len(values)) + "\n"
        yield "".join([line % row for row in zip(*(v.tolist() for v in values))])


def run_sweep(config: RunConfig, out_path: str) -> None:
    """Row-major (t_h outer, t_c inner) sweep written as CSV, one t_h row at a time."""
    t_h_values, t_c_values = sweep_axes(config)
    ctx = build_context(config, max(t_h_values), max(t_c_values))
    _write_csv((out_path, CSV_HEADER,
                _map(partial(_sweep_chunk, ctx, t_c_values), t_h_values, config.workers)))


def _phase_line(config: RunConfig, t_values: list[float], noise_tables: dict,
                ratios: tuple[float, float]) -> str:
    r_omega, r_temp = ratios
    counts = dict.fromkeys(Mode, 0)  # Enum order is the CSV column order
    classification = error = ""
    try:
        # The cell's config passes parse_config's checks, as a config read from a file does.
        cell = parse_config({**config.to_dict(), "omega_c": r_omega * config.omega_h,
                             "T_c": r_temp * config.T_h})
        ctx = build_context(cell, max(t_values), max(t_values), noise_tables)
        for t_h, t_c in product(t_values, t_values):
            counts[evaluate_cycle(ctx, t_h, t_c).mode] += 1
    except NmottoError as exc:  # the cell's first failure; counts so far stay
        error = f"{type(exc).__name__}: {exc}"
    else:
        classification = "engine_only" if counts[Mode.ENGINE] == len(t_values) ** 2 else "mixed"
    return _csv_line([_fmt(r_omega), _fmt(r_temp), *map(str, counts.values()),
                      classification, error])


def run_phase(config: RunConfig, out_path: str) -> None:
    """Classify each (omega_c/omega_h, T_c/T_h) cell over its stroke-time box, as CSV."""
    if config.omega_ratio is None or config.T_ratio is None or config.t_box is None:
        raise ConfigError("phase runs require omega_ratio, T_ratio and t_box")
    ratios = list(product(config.omega_ratio.values(), config.T_ratio.values()))
    _write_csv((out_path, PHASE_HEADER,
                _map(partial(_phase_line, config, config.t_box.values(), {}), ratios, config.workers)))


def write_cycle_csv(report: CycleReport, path: str, json_path: Optional[str] = None) -> None:
    """The report's CSV row at `path` and, given `json_path`, the report as
    indented JSON there (json writes a str Enum label as its value): both
    part files are complete before either is renamed, so a failed write of
    either leaves both paths as they were.
    """
    files = [(path, CSV_HEADER, [_report_line(report)])]
    if json_path is not None:
        files.append((json_path, json.dumps(report._asdict(), indent=2, sort_keys=True), []))
    _write_csv(*files)


def _stroke_grid(config: RunConfig, bath_label: str) -> tuple[KernelGrid, float]:
    """The labelled stroke's kernel grid and longest stroke time; a hot dump needs no cold key."""
    bath, omega = config.stroke(bath_label)
    t_max = max(_time_axis(config, f"t_{bath_label[0]}", f"the {bath_label} stroke"))
    return build_kernel_grid(bath, omega, t_max, config.h), t_max


def write_kernel_csv(config: RunConfig, path: str, bath_label: str) -> None:
    """Dump tau, D1, D2, a, b, A for one bath's grid (for plotting)."""
    grid, _ = _stroke_grid(config, bath_label)
    # The build's integrand of a, cache block by cache block, and its prefix
    # in place: the table the build took A from, bit for bit.
    a = np.empty(grid.n_points)
    for block in cache_blocks(grid.n_points):
        a[block] = -2.0 * grid.D1[block] * np.cos(grid.omega0 * node_times(block, grid.step))
    cumulative_simpson(a, grid.step)
    _write_csv((path, "tau,D1,D2,a,b,A", _column_blocks(grid.n_points, grid.step, lambda rows, tau: (
        grid.D1[rows], dissipation_kernel(tau, grid.bath), a[rows], grid.b[rows], grid.A[rows]))))


def write_trace_csv(config: RunConfig, path: str, bath_label: str, initial_rho00: float) -> None:
    """Dump tau, rho00 for one TCL2 stroke at the grid nodes up to its
    longest stroke time t: rho00(0) * from_ground + (1 - rho00(0)) *
    from_excited of the grid's transition traces.  The grid ends at the
    first node at or past t; the dump stops at the last node at or before
    t, a node within 1e-9 steps past t included."""
    if config.dynamics != "tcl2":
        raise ConfigError(f"dynamics: the stroke dump traces tcl2 dynamics only, got {config.dynamics!r}")
    grid, t = _stroke_grid(config, bath_label)
    from_ground, from_excited = transition_traces(grid)
    step, n = grid.step, grid.n_points
    del grid  # the traces are all the dump reads: D1, b and A go before the text is formed
    k = min(int(math.floor(t / step + 1e-9)), n - 1)
    _write_csv((path, "tau,rho00", _column_blocks(k + 1, step, lambda rows, tau: (
        initial_rho00 * from_ground[rows] + (1.0 - initial_rho00) * from_excited[rows],))))
