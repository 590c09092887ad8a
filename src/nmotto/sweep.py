"""Batch runners: single cycles, (t_h, t_c) sweeps, ratio phase diagrams.

The kernel grids depend only on (bath, qubit frequency, t_max, step), so one
pair is built per sweep and shared read-only by every cell; with the flow
prefix tables in place a cell evaluation is O(1).  Cells are partitioned
statically over workers and reassembled in row-major order, so parallel runs
are byte-identical to serial ones.  Per-cell failures land in the CSV error
column and the run continues.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from . import energetics, limit_cycle
from .config import RunConfig, require_scalar_times, sweep_axes
from .cycle import LABEL_FIELDS, REPORT_FIELDS, CycleReport, assemble_report
from .dynamics import propagate, transition_traces
from .errors import ConfigError, NmottoError
from .kernels import BathSpec, KernelGrid, build_kernel_grid

__all__ = [
    "CSV_HEADER",
    "CycleContext",
    "build_context",
    "evaluate_cycle",
    "run_cycle",
    "run_sweep",
    "run_phase",
    "write_cycle_csv",
    "write_kernel_csv",
    "write_trace_csv",
    "PhaseDiagram",
]

CSV_HEADER = ",".join(REPORT_FIELDS + ("error",))
PHASE_HEADER = "omega_ratio,T_ratio,engine,heater,heat_pump,other,classification,error"
_MODE_COLUMN = REPORT_FIELDS.index("mode")


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else format(value, ".17g")


# CycleReport lists its numeric fields first and its Enum labels last; a
# label among the numbers would fail loudly in format().
_NUMBER_VALUES = attrgetter(*REPORT_FIELDS[: -len(LABEL_FIELDS)])
_LABEL_VALUES = attrgetter(*LABEL_FIELDS)


@dataclass(frozen=True)
class CycleContext:
    """Everything one parameter point needs; immutable and picklable."""

    omega_h: float
    omega_c: float
    hot_bath: BathSpec
    cold_bath: BathSpec
    hot_grid: Optional[KernelGrid]
    cold_grid: Optional[KernelGrid]
    dynamics: str
    sign_eps: float


def build_context(config: RunConfig, t_max_h: float, t_max_c: float) -> CycleContext:
    """Build (and warm) the shared kernel grids for the requested box."""
    if config.omega_c is None or config.T_c is None:
        raise ConfigError("omega_c and T_c: required for cycle evaluation")
    hot = config.hot_bath()
    cold = config.cold_bath()
    if config.dynamics == "markov":
        hot_grid = cold_grid = None
    else:
        hot_grid = build_kernel_grid(hot, config.omega_h, t_max_h, config.h)
        cold_grid = build_kernel_grid(cold, config.omega_c, t_max_c, config.h)
        transition_traces(hot_grid)
        transition_traces(cold_grid)
        energetics._bath_flow_tables(hot_grid)
        energetics._bath_flow_tables(cold_grid)
    return CycleContext(
        omega_h=config.omega_h, omega_c=config.omega_c,
        hot_bath=hot, cold_bath=cold,
        hot_grid=hot_grid, cold_grid=cold_grid,
        dynamics=config.dynamics, sign_eps=config.tolerances.sign_zero,
    )


def evaluate_cycle(ctx: CycleContext, t_h: float, t_c: float) -> CycleReport:
    """One full cycle report at (t_h, t_c)."""
    if ctx.dynamics == "markov":
        return energetics.markov_cycle(t_h, t_c, ctx.hot_bath, ctx.cold_bath,
                                       ctx.omega_h, ctx.omega_c, ctx.sign_eps)
    lc = limit_cycle.fixed_point(t_h, t_c, ctx.hot_grid, ctx.cold_grid)
    hot = energetics.stroke_energetics(lc, "hot", ctx.omega_h, ctx.hot_grid, t_h)
    cold = energetics.stroke_energetics(lc, "cold", ctx.omega_c, ctx.cold_grid, t_c)
    return assemble_report(t_h, t_c, lc, ctx.omega_h, ctx.omega_c,
                           hot_energies=(hot.dE_S, hot.dE_B, hot.dE_I),
                           cold_energies=(cold.dE_S, cold.dE_B, cold.dE_I),
                           eps=ctx.sign_eps)


def run_cycle(config: RunConfig) -> CycleReport:
    t_h, t_c = require_scalar_times(config)
    ctx = build_context(config, t_h, t_c)
    return evaluate_cycle(ctx, t_h, t_c)


def _report_row(report: CycleReport) -> list[str]:
    # Concatenation sizes the row exactly: sweeps hold every row in memory.
    return (list(map(_fmt, _NUMBER_VALUES(report)))
            + [label.value for label in _LABEL_VALUES(report)] + [""])


def _error_row(t_h: float, t_c: float, exc: Exception) -> list[str]:
    row = [_fmt(t_h), _fmt(t_c)] + [""] * (len(REPORT_FIELDS) - 2)
    row.append(f"{type(exc).__name__}: {exc}")
    return row


# Failures of the physics at one parameter point; anything else is a bug and
# propagates.
_CELL_ERRORS = (NmottoError, ValueError, ArithmeticError)


def _eval_cells(ctx: CycleContext, cells: list[tuple[int, float, float]]) -> list[tuple[int, list[str]]]:
    out = []
    for idx, t_h, t_c in cells:
        try:
            out.append((idx, _report_row(evaluate_cycle(ctx, t_h, t_c))))
        except _CELL_ERRORS as exc:  # per-cell failure: record and continue
            out.append((idx, _error_row(t_h, t_c, exc)))
    return out


def _parallel_rows(ctx, cells, workers: int) -> list[list[str]]:
    if workers <= 1 or len(cells) < 2:
        indexed = _eval_cells(ctx, cells)
    else:
        chunk = math.ceil(len(cells) / workers)
        chunks = [cells[i : i + chunk] for i in range(0, len(cells), chunk)]
        try:
            mp_ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix
            mp_ctx = multiprocessing.get_context()
        indexed = []
        with ProcessPoolExecutor(max_workers=workers, mp_context=mp_ctx) as pool:
            for part in pool.map(_eval_cells, [ctx] * len(chunks), chunks):
                indexed.extend(part)
    indexed.sort(key=lambda pair: pair[0])
    return [row for _, row in indexed]


def _write_csv(path: str, header: str, rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def run_sweep(config: RunConfig, out_path: str, workers: Optional[int] = None) -> list[list[str]]:
    """Row-major (t_h outer, t_c inner) sweep written as CSV; returns the rows."""
    t_h_values, t_c_values = sweep_axes(config)
    ctx = build_context(config, max(t_h_values), max(t_c_values))
    cells = []
    idx = 0
    for t_h in t_h_values:
        for t_c in t_c_values:
            cells.append((idx, t_h, t_c))
            idx += 1
    rows = _parallel_rows(ctx, cells, workers if workers is not None else config.workers)
    _write_csv(out_path, CSV_HEADER, rows)
    return rows


@dataclass(frozen=True)
class PhaseCell:
    omega_ratio: float
    T_ratio: float
    mode_counts: dict
    classification: str
    error: str


@dataclass(frozen=True)
class PhaseDiagram:
    omega_ratios: list[float]
    T_ratios: list[float]
    cells: list[PhaseCell]


def _phase_cell(config: RunConfig, r_omega: float, r_temp: float,
                t_values: list[float], workers: int) -> PhaseCell:
    from .cycle import Mode

    counts = {mode.value: 0 for mode in Mode}
    try:
        sub = RunConfig(
            omega_h=config.omega_h, omega_c=r_omega * config.omega_h,
            T_h=config.T_h, T_c=r_temp * config.T_h,
            lambda_h=config.lambda_h, lambda_c=config.lambda_c,
            Omega_h=config.Omega_h, Omega_c=config.Omega_c,
            h=config.h, dynamics=config.dynamics, tolerances=config.tolerances,
        )
        ctx = build_context(sub, max(t_values), max(t_values))
        cells = []
        idx = 0
        for t_h in t_values:
            for t_c in t_values:
                cells.append((idx, t_h, t_c))
                idx += 1
        for row in _parallel_rows(ctx, cells, workers):
            if row[-1]:
                raise NmottoError(row[-1])
            counts[row[_MODE_COLUMN]] += 1
        classification = "engine_only" if counts["Engine"] == len(cells) else "mixed"
        return PhaseCell(r_omega, r_temp, counts, classification, "")
    except _CELL_ERRORS as exc:
        return PhaseCell(r_omega, r_temp, counts, "", f"{type(exc).__name__}: {exc}")


def run_phase(config: RunConfig, out_path: str, workers: Optional[int] = None) -> PhaseDiagram:
    """Classify each (omega_c/omega_h, T_c/T_h) cell over its stroke-time box."""
    if config.omega_ratio is None or config.T_ratio is None or config.t_box is None:
        raise ConfigError("phase runs require omega_ratio, T_ratio and t_box")
    t_values = config.t_box.values()
    n_workers = workers if workers is not None else config.workers
    cells = []
    for r_omega in config.omega_ratio.values():
        for r_temp in config.T_ratio.values():
            cells.append(_phase_cell(config, r_omega, r_temp, t_values, n_workers))
    rows = []
    for cell in cells:
        rows.append([
            _fmt(cell.omega_ratio), _fmt(cell.T_ratio),
            str(cell.mode_counts["Engine"]), str(cell.mode_counts["Heater"]),
            str(cell.mode_counts["HeatPump"]), str(cell.mode_counts["Other"]),
            cell.classification, cell.error,
        ])
    _write_csv(out_path, PHASE_HEADER, rows)
    return PhaseDiagram(
        omega_ratios=config.omega_ratio.values(),
        T_ratios=config.T_ratio.values(),
        cells=cells,
    )


def write_cycle_csv(report: CycleReport, path: str) -> None:
    _write_csv(path, CSV_HEADER, [_report_row(report)])


def write_kernel_csv(config: RunConfig, path: str, bath_label: str) -> None:
    """Dump tau, D1, D2, a, b, A for one bath's grid (for plotting)."""
    t_h_values, t_c_values = sweep_axes(config)
    if bath_label == "hot":
        bath, omega, t_max = config.hot_bath(), config.omega_h, max(t_h_values)
    elif bath_label == "cold":
        if config.omega_c is None:
            raise ConfigError("omega_c: required to dump the cold-bath kernels")
        bath, omega, t_max = config.cold_bath(), config.omega_c, max(t_c_values)
    else:
        raise ConfigError(f"bath must be 'hot' or 'cold', got {bath_label!r}")
    grid = build_kernel_grid(bath, omega, t_max, config.h)
    rows = [
        [_fmt(float(grid.tau[i])), _fmt(float(grid.D1[i])), _fmt(float(grid.D2[i])),
         _fmt(float(grid.a[i])), _fmt(float(grid.b[i])), _fmt(float(grid.A[i]))]
        for i in range(grid.n_points)
    ]
    _write_csv(path, "tau,D1,D2,a,b,A", rows)


def write_trace_csv(config: RunConfig, path: str, bath_label: str, initial_rho00: float) -> None:
    """Dump tau, rho00 for one stroke's propagation."""
    t_h_values, t_c_values = sweep_axes(config)
    if bath_label == "hot":
        bath, omega, t = config.hot_bath(), config.omega_h, max(t_h_values)
    elif bath_label == "cold":
        if config.omega_c is None:
            raise ConfigError("omega_c: required to propagate the cold stroke")
        bath, omega, t = config.cold_bath(), config.omega_c, max(t_c_values)
    else:
        raise ConfigError(f"bath must be 'hot' or 'cold', got {bath_label!r}")
    grid = build_kernel_grid(bath, omega, t, config.h)
    trace = propagate(initial_rho00, grid, t)
    rows = [
        [_fmt(float(trace.tau[i])), _fmt(float(trace.rho00[i]))]
        for i in range(trace.tau.shape[0])
    ]
    _write_csv(path, "tau,rho00", rows)
