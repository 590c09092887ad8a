"""Correctness checks on a workload's output files.

Every check holds for any seed.  Cheap identities run on every row; the
oracles that re-evaluate the physics run on a seeded sample.  Each check
returns the ops attempted, the ops that failed (error rows, failed searches)
and a list of problems; any problem makes the run incorrect.
"""

from __future__ import annotations

import csv
import math
import random

import nmotto

# The stable sweep/cycle CSV schema (README "Sweep CSV schema").
REPORT_HEADER = (
    "t_h,t_c,dE_S_h,dE_B_h,dE_I_h,dE_S_c,dE_B_c,dE_I_c,"
    "W_adiab_h,W_adiab_c,W_detach_h,W_detach_c,W_total,"
    "alpha_h,alpha_c,eta,cop,mode,flow_h,flow_c,error"
).split(",")
PHASE_HEADER = "omega_ratio,T_ratio,engine,heater,heat_pump,other,classification,error".split(",")
BOUNDARY_HEADER = ["t_h", "t0_c", "t1_c", "error"]
_NUMERIC = REPORT_HEADER[:13]

# Reference crossings of the t_h = 60 cycle at h = 0.0125, and the budget the
# default h = 0.05 grid meets today (its error is ~6e-5, O(h^2)).
T0_C_REF = 4.884998
T1_C_REF = 19.823692
BOUNDARY_BUDGET = 1e-4

IDENTITY_RTOL = 1e-12  # sums formed in float64 by the program
FIXED_POINT_TOL = 1e-9  # |P_h - P*| implied by one step of the raw map
INTEGRAL_TOL = 1e-9  # prefix-table dE_I vs the explicit one-shot integral
GIBBS_TOL = 1e-9  # thermalised hot stroke vs the Gibbs excited population


def _read(path: str, header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: unexpected header {rows[0] if rows else None}")
    return rows[1:]


def _close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale) + 1e-300


def _report_identities(rec: dict, where: str) -> list[str]:
    """Energy balance per stroke and W_total as the sum of its parts."""
    problems = []
    for side in ("h", "c"):
        terms = [rec[f"dE_S_{side}"], rec[f"dE_B_{side}"], rec[f"dE_I_{side}"]]
        if not _close(sum(terms), 0.0, IDENTITY_RTOL, sum(abs(x) for x in terms)):
            problems.append(f"{where}: dE_S+dE_B+dE_I = {sum(terms)!r} on the {side} stroke")
    parts = [rec["W_adiab_h"], rec["W_adiab_c"], rec["W_detach_h"], rec["W_detach_c"]]
    if not _close(rec["W_total"], sum(parts), IDENTITY_RTOL, sum(abs(x) for x in parts)):
        problems.append(f"{where}: W_total {rec['W_total']!r} != sum of parts {sum(parts)!r}")
    return problems


def _oracles(rec: dict, ctx, where: str) -> list[str]:
    """P_h against the raw one-cycle map, on-node dE_I against the explicit integral."""
    problems = []
    t_h, t_c = rec["t_h"], rec["t_c"]
    p_h = rec["dE_S_h"] / ctx.omega_h + 1.0 - rec["W_adiab_h"] / (ctx.omega_h - ctx.omega_c)

    def one_cycle(p):
        return nmotto.iterate_map(p, 1, t_h, t_c, ctx.hot_grid, ctx.cold_grid)

    # The map is affine with slope p0 < 1, so |P - P*| = |map(P) - P| / (1 - p0).
    slope = one_cycle(1.0) - one_cycle(0.0)
    distance = abs(one_cycle(p_h) - p_h) / (1.0 - slope)
    if not distance <= FIXED_POINT_TOL:
        problems.append(f"{where}: P_h={p_h!r} is {distance:.3g} from the fixed point of iterate_map")
    lc = nmotto.fixed_point(t_h, t_c, ctx.hot_grid, ctx.cold_grid)
    for label, grid, t, key in (("hot", ctx.hot_grid, t_h, "dE_I_h"), ("cold", ctx.cold_grid, t_c, "dE_I_c")):
        if abs(round(t / grid.step) * grid.step - t) > 1e-9 * grid.step:
            problems.append(f"{where}: t={t!r} is not on a {label} grid node; the dE_I oracle needs one")
            continue
        explicit = nmotto.eq_interaction_integral(lc, label, grid, t)
        if not abs(explicit - rec[key]) <= INTEGRAL_TOL:
            problems.append(f"{where}: {key}={rec[key]!r} but the explicit integral gives {explicit!r}")
    return problems


def _record(row: list[str]) -> dict:
    rec = {name: float(row[i]) for i, name in enumerate(_NUMERIC)}
    rec["mode"] = row[17]
    return rec


def _axis_matches(values: list[float], expected: list[float]) -> bool:
    return len(values) == len(expected) and all(_close(a, b, 1e-12) for a, b in zip(values, expected))


def check_sweep(path: str, config: dict, rng: random.Random, sample: int = 48) -> dict:
    rows = _read(path, REPORT_HEADER)
    run = nmotto.parse_config(config)
    t_h_axis, t_c_axis = run.t_h.values(), run.t_c.values()
    problems, failed = [], 0
    if len(rows) != len(t_h_axis) * len(t_c_axis):
        problems.append(f"{len(rows)} rows for a {len(t_h_axis)}x{len(t_c_axis)} sweep")
        return {"attempted": len(t_h_axis) * len(t_c_axis), "failed": 0, "problems": problems}
    good = []
    for i, row in enumerate(rows):
        if row[-1]:
            failed += 1
            continue
        rec = _record(row)
        problems += _report_identities(rec, f"row {i + 1}")
        good.append((i, rec))
    if not (_axis_matches([float(r[0]) for r in rows[:: len(t_c_axis)]], t_h_axis)
            and _axis_matches([float(r[1]) for r in rows[: len(t_c_axis)]], t_c_axis)):
        problems.append("stroke times differ from the configured axes")
    ctx = nmotto.build_context(run, max(t_h_axis), max(t_c_axis))
    for i, rec in rng.sample(good, min(sample, len(good))):
        problems += _oracles(rec, ctx, f"row {i + 1}")
    return {"attempted": len(rows), "failed": failed, "problems": problems}


def _cell_config(config: dict, r_omega: float, r_temp: float) -> dict:
    cell = {k: v for k, v in config.items() if k not in ("omega_ratio", "T_ratio", "t_box")}
    cell["omega_c"] = r_omega * config["omega_h"]
    cell["T_c"] = r_temp * config["T_h"]
    return cell


def check_phase(path: str, config: dict, rng: random.Random, sample: int = 16) -> dict:
    rows = _read(path, PHASE_HEADER)
    run = nmotto.parse_config(config)
    t_values = run.t_box.values()
    n_box = len(t_values) ** 2
    problems, failed = [], 0
    ratios = [(a, b) for a in run.omega_ratio.values() for b in run.T_ratio.values()]
    if len(rows) != len(ratios):
        return {"attempted": len(ratios) * n_box, "failed": 0,
                "problems": [f"{len(rows)} rows for {len(ratios)} ratio cells"]}
    for (r_omega, r_temp), row in zip(ratios, rows):
        where = f"cell ({row[0]}, {row[1]})"
        if not (_close(float(row[0]), r_omega, 1e-12) and _close(float(row[1]), r_temp, 1e-12)):
            problems.append(f"{where}: ratios differ from the configured axes")
        if row[-1]:
            failed += n_box
            continue
        counts = [int(x) for x in row[2:6]]
        if sum(counts) != n_box:
            problems.append(f"{where}: mode counts sum to {sum(counts)}, not {n_box}")
        if (row[6] == "engine_only") != (counts[0] == n_box):
            problems.append(f"{where}: classification {row[6]!r} contradicts the counts")

    # Recompute one seeded ratio cell on the scalar path and compare its counts.
    index = rng.randrange(len(rows))
    row = rows[index]
    if not row[-1]:
        cell = nmotto.parse_config(_cell_config(config, float(row[0]), float(row[1])))
        ctx = nmotto.build_context(cell, max(t_values), max(t_values))
        reports = [nmotto.evaluate_cycle(ctx, t_h, t_c) for t_h in t_values for t_c in t_values]
        counts = [sum(r.mode.value == m for r in reports) for m in ("Engine", "Heater", "HeatPump", "Other")]
        if counts != [int(x) for x in row[2:6]]:
            problems.append(f"cell {index + 1}: counts {row[2:6]} but re-evaluation gives {counts}")
        for report in rng.sample(reports, min(sample, len(reports))):
            rec = {name: getattr(report, name) for name in _NUMERIC}
            where = f"cell {index + 1} (t_h={report.t_h!r}, t_c={report.t_c!r})"
            problems += _report_identities(rec, where) + _oracles(rec, ctx, where)
    return {"attempted": len(rows) * n_box, "failed": failed, "problems": problems}


def check_boundary(path: str, config: dict, searches: dict, rng: random.Random, sample: int = 16) -> dict:
    rows = _read(path, BOUNDARY_HEADER)
    problems = []
    if len(rows) != len(searches["t_h"]) or any(float(r[0]) != t for r, t in zip(rows, searches["t_h"])):
        return {"attempted": len(searches["t_h"]), "failed": 0,
                "problems": ["searched hot-stroke times differ from the inputs"]}
    failed = sum(1 for r in rows if r[3])
    lo, hi = searches["t_c_min"], searches["t_c_max"]
    found = []
    for r in rows:
        for column, key in ((1, "dE_S_h"), (2, "W_total")):
            if r[3] or not r[column]:
                continue
            t = float(r[column])
            if not lo <= t <= hi:
                problems.append(f"t_h={r[0]}: crossing {t!r} outside the scan range")
            found.append((float(r[0]), t, key))
    reference = rows[0]
    if float(reference[0]) != 60.0 or reference[3] or not reference[1] or not reference[2]:
        problems.append("the reference search at t_h=60 is missing or failed")
    elif not (abs(float(reference[1]) - T0_C_REF) <= BOUNDARY_BUDGET
              and abs(float(reference[2]) - T1_C_REF) <= BOUNDARY_BUDGET):
        problems.append(f"reference crossings ({reference[1]}, {reference[2]}) outside "
                        f"{BOUNDARY_BUDGET:g} of ({T0_C_REF}, {T1_C_REF})")

    # Each reported crossing must be bracketed by a sign change of its observable.
    ctx = nmotto.build_context(nmotto.parse_config(config), max(searches["t_h"]), hi)
    for t_h, t, key in rng.sample(found, min(sample, len(found))):
        width = searches["rtol"] * t
        below = getattr(nmotto.evaluate_cycle(ctx, t_h, t - width), key)
        above = getattr(nmotto.evaluate_cycle(ctx, t_h, t + width), key)
        if (below > 0.0) == (above > 0.0):
            problems.append(f"t_h={t_h!r}: {key} keeps its sign across the crossing {t!r}")
    return {"attempted": len(rows), "failed": failed, "problems": problems}


def check_long(path: str, config: dict) -> dict:
    rows = _read(path, REPORT_HEADER)
    if len(rows) != 1:
        return {"attempted": 1, "failed": 0, "problems": [f"{len(rows)} rows, expected one"]}
    row = rows[0]
    if row[-1]:
        return {"attempted": 1, "failed": 1, "problems": []}
    rec = _record(row)
    problems = _report_identities(rec, "cycle")
    if (rec["t_h"], rec["t_c"]) != (config["t_h"], config["t_c"]):
        problems.append("stroke times differ from the inputs")
    # After ~600 relaxation times the hot stroke ends in the Gibbs state.
    gibbs = 1.0 / (1.0 + math.exp(config["omega_h"] / config["T_h"]))
    excited = rec["W_adiab_h"] / (config["omega_h"] - config["omega_c"])
    if not abs(excited - gibbs) <= GIBBS_TOL:
        problems.append(f"hot-stroke excited population {excited!r} differs from Gibbs {gibbs!r}")
    return {"attempted": 1, "failed": 0, "problems": problems}


def check(workload: str, path: str, inputs: dict, seed: int) -> dict:
    rng = random.Random(f"check:{workload}:{seed}")
    if workload == "sweep_300":
        return check_sweep(path, inputs["config"], rng)
    if workload == "phase_6x6":
        return check_phase(path, inputs["config"], rng)
    if workload == "boundary_scan":
        return check_boundary(path, inputs["config"], inputs["searches"], rng)
    return check_long(path, inputs["config"])
