"""Span recording around the layer boundaries of `nmotto`.

No file of the package changes: `install` replaces each public function in
the module namespace its caller looks it up from (for example
`nmotto.limit_cycle.transition_populations`, which `fixed_point` calls) with
a wrapper that records a span.  High-frequency spans (about 90k cells times
seven spans on `sweep_300`) are aggregated per name in memory: each span
adds its duration to its name's total and to its parent's child time, and
its self time (duration minus child time) to its name's self total.
"""

from __future__ import annotations

import importlib
import time
import weakref
from collections import defaultdict

# |A| above which nmotto.dynamics propagates in the overflow-guarded form.
EXP_GUARD = 500.0


def _points(tracer, span, args, result):
    tracer.counts[span + ".points"] += int(getattr(args[0], "size", 1))


def _grid(tracer, span, args, result):
    tracer.counts["kernels.grid_nodes"] += int(result.n_points)


def _traces(tracer, span, args, result):
    # The first sighting of a grid is the call that propagated it; later
    # calls are cache hits.
    grid = args[0]
    if grid in tracer.seen_grids:
        return
    tracer.seen_grids.add(grid)
    if float(abs(grid.A).max()) > EXP_GUARD:
        tracer.counts["dynamics.guarded_grids"] += 1
        tracer.counts["dynamics.guarded_nodes"] += int(grid.n_points)


# (module, attribute its caller looks up, span name, counter)
PATCHES = (
    ("nmotto.cli", "load_config", "config.load", None),
    ("nmotto.cli", "run_sweep", "sweep.emit", None),
    ("nmotto.cli", "run_phase", "sweep.emit", None),
    ("nmotto.cli", "write_cycle_csv", "sweep.emit", None),
    ("nmotto.sweep", "build_context", "sweep.build_context", None),
    ("nmotto.sweep", "evaluate_cycle", "sweep.evaluate", None),
    ("nmotto.sweep", "build_kernel_grid", "kernels.grid", _grid),
    ("nmotto.sweep", "transition_traces", "dynamics.traces", _traces),
    ("nmotto.energetics", "transition_traces", "dynamics.traces", _traces),
    ("nmotto.kernels", "trigamma_values", "special.trigamma", _points),
    ("nmotto.kernels", "cumulative_simpson", "special.cumsimpson", _points),
    ("nmotto.dynamics", "cumulative_simpson", "special.cumsimpson", _points),
    ("nmotto.energetics", "cumulative_simpson", "special.cumsimpson", _points),
    ("nmotto.limit_cycle", "transition_populations", "dynamics.lookup", None),
    ("nmotto.limit_cycle", "fixed_point", "limit_cycle.fixed_point", None),
    ("nmotto.energetics", "stroke_energetics", "energetics.stroke", None),
    ("nmotto.sweep", "assemble_report", "cycle.assemble", None),
    ("nmotto.cycle", "find_boundaries", "cycle.search", None),
)


class Tracer:
    """Per-name span aggregates: calls, errors, total time and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.seen_grids = weakref.WeakSet()
        self.missing = []
        # One child-time cell per open span; the bottom cell collects the
        # time of spans opened outside any root.
        self._stack = [[0.0]]

    def wrap(self, name, fn, counter=None):
        stack, clock = self._stack, self.clock
        calls, errors, total_s, self_s = self.calls, self.errors, self.total_s, self.self_s

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[0]
            if counter is not None:
                counter(self, name, args, result)
            return result

        span.__wrapped__ = fn
        return span

    def root(self, fn, *args):
        """Run fn as the root span "root"; its self time is the unattributed rest."""
        return self.wrap("root", fn)(*args)


def install(tracer, spans=None):
    """Wrap every patch point (or only those whose span is in `spans`).

    A patch point the package no longer has is listed in `tracer.missing`
    and its metrics read 0.
    """
    for module_name, attr, span, counter in PATCHES:
        if spans is not None and span not in spans:
            continue
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(span, fn, counter))


def accounting_error(summary) -> float:
    """|sum of self times - root duration|: 0 when every span nested cleanly."""
    return abs(sum(summary["self_s"].values()) - summary["total_s"].get("root", 0.0))


def summary(tracer) -> dict:
    return {
        "calls": dict(tracer.calls),
        "errors": dict(tracer.errors),
        "total_s": dict(tracer.total_s),
        "self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
        "missing": list(tracer.missing),
    }


def layer_metrics(summary: dict, import_s: float, csv_bytes: int) -> dict:
    """Per-layer metric values of one traced run, by metric name."""
    self_s, total_s = summary["self_s"], summary["total_s"]
    calls, counts = summary["calls"], summary["counts"]
    searches = calls.get("cycle.search", 0)
    return {
        "special.trigamma_s": self_s.get("special.trigamma", 0.0),
        "special.trigamma_points": counts.get("special.trigamma.points", 0),
        "special.cumsimpson_s": self_s.get("special.cumsimpson", 0.0),
        "special.cumsimpson_points": counts.get("special.cumsimpson.points", 0),
        "kernels.grid_self_s": self_s.get("kernels.grid", 0.0),
        "kernels.grids_built": calls.get("kernels.grid", 0),
        "kernels.grid_nodes": counts.get("kernels.grid_nodes", 0),
        "dynamics.traces_s": self_s.get("dynamics.traces", 0.0),
        "dynamics.guarded_grids": counts.get("dynamics.guarded_grids", 0),
        "dynamics.guarded_nodes": counts.get("dynamics.guarded_nodes", 0),
        "dynamics.lookup_s": self_s.get("dynamics.lookup", 0.0),
        "dynamics.lookup_calls": calls.get("dynamics.lookup", 0),
        "limit_cycle.fixed_point_s": self_s.get("limit_cycle.fixed_point", 0.0),
        "limit_cycle.calls": calls.get("limit_cycle.fixed_point", 0),
        "energetics.stroke_s": self_s.get("energetics.stroke", 0.0),
        "energetics.stroke_calls": calls.get("energetics.stroke", 0),
        # The flow tables are built inside build_context and are not a public
        # function: they are the context build's self time.
        "energetics.flow_tables_s": self_s.get("sweep.build_context", 0.0),
        "cycle.assemble_s": self_s.get("cycle.assemble", 0.0),
        "cycle.assemble_calls": calls.get("cycle.assemble", 0),
        "cycle.search_s": self_s.get("cycle.search", 0.0),
        # Every evaluation of the boundary workload happens inside a search.
        "cycle.evals_per_search": calls.get("sweep.evaluate", 0) / searches if searches else 0.0,
        # Inclusive: the whole context build, children included.
        "sweep.build_context_s": total_s.get("sweep.build_context", 0.0),
        "sweep.contexts_built": calls.get("sweep.build_context", 0),
        "sweep.evaluate_s": self_s.get("sweep.evaluate", 0.0),
        "sweep.cells": calls.get("sweep.evaluate", 0),
        "sweep.error_cells": summary["errors"].get("sweep.evaluate", 0),
        "sweep.emit_s": self_s.get("sweep.emit", 0.0),
        "sweep.csv_bytes": csv_bytes,
        "config.load_s": self_s.get("config.load", 0.0),
        "setup.import_s": import_s,
        "trace.unattributed_s": self_s.get("root", 0.0),
    }
