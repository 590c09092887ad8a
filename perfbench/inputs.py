"""Seeded inputs for the four benchmark workloads.

Everything here is plain Python and JSON: the program under test receives
only the files written by `write_inputs`, never the seed.  The seed moves
input values (axis endpoints, stroke times); it never changes how much work
a workload does.  `WHY` records why each workload was chosen.
"""

from __future__ import annotations

import json
import os
import random

WHY = {
    "sweep_300": "300x300 (t_h, t_c) sweep: per-cell evaluation and CSV emission dominate; "
                 "only two grids are built",
    "phase_6x6": "6x6 ratio cells of 40x40 t_box: 72 grid builds (36 identical hot grids) "
                 "and almost no CSV",
    "boundary_scan": "300 boundary searches on one context: the only scalar one-cell path; "
                     "includes the reference t_h=60",
    "long_stroke": "one cycle with t_h~60000: a 1.2M-node hot grid with max|A|>500 runs the "
                   "overflow-guarded propagation",
}
WORKLOADS = tuple(WHY)

# Reference physics of configs/reference_cycle.json, copied so that editing
# the example configs cannot change what the benchmark measures.
REFERENCE = {
    "omega_h": 1.0,
    "omega_c": 0.5,
    "T_h": 1.0,
    "T_c": 0.2,
    "lambda_h": 0.01,
    "lambda_c": 0.01,
    "Omega_h": 0.4,
    "Omega_c": 0.4,
    "dynamics": "tcl2",
    "workers": 1,
}

# Default grid step of both reference baths.  Sweep and t_box axes are laid on
# multiples of it so that every sampled cell sits on a grid node, where the
# explicit-integral dE_I oracle applies.
NODE = 0.05

# Every boundary scan includes the reference cycle, whose crossings are known.
REFERENCE_T_H = 60.0
SCAN = {"t_c_min": 0.5, "t_c_max": 120.0, "step": 0.5, "rtol": 1e-6}

# Full and smoke sizes.  The smoke size runs the same code path in seconds.
SIZES = {
    "full": {"sweep_n": 300, "phase_n": 6, "box_n": 40, "searches": 300,
             "long_t_h": (59000.0, 60000.0)},
    "tiny": {"sweep_n": 12, "phase_n": 2, "box_n": 4, "searches": 3,
             "long_t_h": (11000.0, 12000.0)},
}


def _physics(**extra) -> dict:
    config = dict(REFERENCE)
    config.update(extra)
    return config


def _sweep_axis(rng: random.Random, n: int) -> dict:
    # n nodes spaced 66 or 67 grid steps apart from a start in [1, 2):
    # t_max stays within [987, 1004] for the full size.
    lo = 1.0 + NODE * rng.randrange(20)
    step = NODE * (rng.choice((66, 67)) * 299 // (n - 1))
    return {"min": lo, "max": lo + (n - 1) * step, "n": n}


def _sweep(rng: random.Random, size: dict) -> dict:
    n = size["sweep_n"]
    config = _physics(t_h=_sweep_axis(rng, n), t_c=_sweep_axis(rng, n))
    return {"config": config, "ops": n * n}


def _phase(rng: random.Random, size: dict) -> dict:
    n, box_n = size["phase_n"], size["box_n"]
    config = {k: v for k, v in REFERENCE.items() if k not in ("omega_c", "T_c")}
    config["omega_ratio"] = {"min": 0.25 + 0.1 * rng.random(), "max": 0.65 + 0.1 * rng.random(), "n": n}
    config["T_ratio"] = {"min": 0.10 + 0.1 * rng.random(), "max": 0.70 + 0.1 * rng.random(), "n": n}
    # t_box values are k * t_max / box_n; a step of 490..510 grid steps keeps
    # every value on a node and t_max within [980, 1020] for the full size.
    box_step = NODE * (rng.randint(490, 510) * 40 // box_n)
    config["t_box"] = {"t_max": box_step * box_n, "n": box_n}
    return {"config": config, "ops": n * n * box_n * box_n}


def _boundary(rng: random.Random, size: dict) -> dict:
    count = size["searches"]
    t_h = [REFERENCE_T_H] + [rng.uniform(10.0, 1000.0) for _ in range(count - 1)]
    return {"config": _physics(), "searches": dict(SCAN, t_h=t_h), "ops": count}


def _long(rng: random.Random, size: dict) -> dict:
    lo, hi = size["long_t_h"]
    config = _physics(t_h=rng.uniform(lo, hi), t_c=rng.uniform(5.0, 20.0))
    return {"config": config, "ops": 1}


_GENERATORS = {"sweep_300": _sweep, "phase_6x6": _phase,
             "boundary_scan": _boundary, "long_stroke": _long}


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """The workload's generated inputs as plain data (same seed, same inputs)."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, SIZES[size])


def write_inputs(inputs: dict, directory: str) -> dict:
    """Write the inputs as files; returns the paths the child process reads."""
    paths = {"config": os.path.join(directory, "config.json")}
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump(inputs["config"], fh, indent=1)
    if "searches" in inputs:
        paths["searches"] = os.path.join(directory, "searches.json")
        with open(paths["searches"], "w", encoding="utf-8") as fh:
            json.dump(inputs["searches"], fh)
    return paths
