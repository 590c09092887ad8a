import csv
import json

import numpy as np
import pytest

import nmotto as nm
from nmotto.config import parse_config, sweep_axes
from nmotto.errors import ConfigError
from nmotto.sweep import CSV_HEADER, run_cycle, run_phase, run_sweep, write_cycle_csv

from conftest import base_config_dict


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
        cfg = parse_config(base_config_dict(tolerances={"sign_zero": 1e-10}))
        assert cfg.tolerances.sign_zero == 1e-10
        with pytest.raises(ConfigError, match="tolerances"):
            parse_config(base_config_dict(tolerances={"sgn": 1.0}))

    def test_scalar_axes(self):
        cfg = parse_config(base_config_dict())
        assert sweep_axes(cfg) == ([60.0], [10.0])


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
        assert first == ("t_h,t_c,dE_S_h,dE_B_h,dE_I_h,dE_S_c,dE_B_c,dE_I_c,"
                         "W_adiab_h,W_adiab_c,W_detach_h,W_detach_c,W_total,"
                         "alpha_h,alpha_c,eta,cop,mode,flow_h,flow_c,error")

    def test_row_major_order_and_determinism(self, small_cfg, tmp_path):
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        run_sweep(small_cfg, str(p1))
        run_sweep(small_cfg, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 36
        t_h = [float(r["t_h"]) for r in rows]
        assert t_h == sorted(t_h)
        assert [float(r["t_c"]) for r in rows[:6]] == sorted({float(r["t_c"]) for r in rows})

    def test_worker_count_does_not_change_bytes(self, small_cfg, tmp_path):
        p1, p4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        run_sweep(small_cfg, str(p1), workers=1)
        run_sweep(small_cfg, str(p4), workers=4)
        assert p1.read_bytes() == p4.read_bytes()

    def test_single_cell_sweep_equals_cycle(self, tmp_path):
        cfg = parse_config(base_config_dict())
        sweep_path, cycle_path = tmp_path / "sweep.csv", tmp_path / "cycle.csv"
        run_sweep(cfg, str(sweep_path))
        write_cycle_csv(run_cycle(cfg), str(cycle_path))
        assert sweep_path.read_bytes() == cycle_path.read_bytes()

    def test_values_have_full_precision(self, small_cfg, tmp_path):
        run_sweep(small_cfg, str(tmp_path / "p.csv"))
        with open(tmp_path / "p.csv") as fh:
            row = next(csv.DictReader(fh))
        ctx_value = float(row["dE_S_h"])
        rep = nm.evaluate_cycle(
            nm.build_context(small_cfg, 120.0, 120.0), float(row["t_h"]), float(row["t_c"]))
        assert ctx_value == rep.dE_S_h

    def test_sign_change_curves_exist_in_box(self, small_cfg, tmp_path):
        run_sweep(small_cfg, str(tmp_path / "box.csv"))
        with open(tmp_path / "box.csv") as fh:
            rows = list(csv.DictReader(fh))
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
        rows = run_sweep(cfg, str(tmp_path / "err.csv"))
        assert len(rows) == 4
        for row in rows:
            assert "SingularMapError" in row[-1]
            assert row[2] == ""

    def test_program_bug_propagates(self, small_cfg, tmp_path, monkeypatch):
        # a TypeError is a bug, not a per-cell physics failure
        def broken(ctx, t_h, t_c):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(nm.sweep, "evaluate_cycle", broken)
        out = tmp_path / "bug.csv"
        with pytest.raises(TypeError, match="unsupported operand"):
            run_sweep(small_cfg, str(out), workers=1)
        assert not out.exists()


class TestRunPhase:
    def test_program_bug_propagates(self, tmp_path, monkeypatch):
        def broken(ctx, t_h, t_c):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(nm.sweep, "evaluate_cycle", broken)
        cfg = parse_config({
            "omega_h": 1.0, "T_h": 1.0,
            "lambda_h": 0.01, "lambda_c": 0.01, "Omega_h": 0.4, "Omega_c": 0.4,
            "omega_ratio": {"min": 0.5, "max": 0.5, "n": 1},
            "T_ratio": {"min": 0.2, "max": 0.2, "n": 1},
            "t_box": {"t_max": 10.0, "n": 2},
        })
        with pytest.raises(TypeError, match="unsupported operand"):
            run_phase(cfg, str(tmp_path / "bug.csv"), workers=1)

    def test_small_phase_diagram(self, tmp_path):
        cfg = parse_config({
            "omega_h": 1.0, "T_h": 1.0,
            "lambda_h": 0.01, "lambda_c": 0.01, "Omega_h": 0.4, "Omega_c": 0.4,
            "omega_ratio": {"min": 0.5, "max": 0.5, "n": 1},
            "T_ratio": {"min": 0.2, "max": 0.8, "n": 2},
            "t_box": {"t_max": 90.0, "n": 3},
            "dynamics": "tcl2",
        })
        diagram = run_phase(cfg, str(tmp_path / "phase.csv"))
        assert len(diagram.cells) == 2
        by_ratio = {c.T_ratio: c for c in diagram.cells}
        # efficient corner mixes modes; inverted corner cannot run as an engine
        assert by_ratio[0.2].mode_counts["Engine"] > 0
        assert by_ratio[0.8].mode_counts["Engine"] == 0
        header = (tmp_path / "phase.csv").read_text().splitlines()[0]
        assert header == "omega_ratio,T_ratio,engine,heater,heat_pump,other,classification,error"

    def test_markov_phase_is_engine_only_when_otto_efficient(self, tmp_path):
        cfg = parse_config({
            "omega_h": 1.0, "T_h": 1.0,
            "lambda_h": 0.01, "lambda_c": 0.01, "Omega_h": 0.4, "Omega_c": 0.4,
            "omega_ratio": {"min": 0.5, "max": 0.5, "n": 1},
            "T_ratio": {"min": 0.2, "max": 0.2, "n": 1},
            "t_box": {"t_max": 90.0, "n": 4},
            "dynamics": "markov",
        })
        diagram = run_phase(cfg, str(tmp_path / "mphase.csv"))
        assert diagram.cells[0].classification == "engine_only"

    def test_single_cell_phase_matches_sweep_summary(self, tmp_path):
        t_box = {"t_max": 80.0, "n": 4}
        phase_cfg = parse_config({
            "omega_h": 1.0, "T_h": 1.0,
            "lambda_h": 0.01, "lambda_c": 0.01, "Omega_h": 0.4, "Omega_c": 0.4,
            "omega_ratio": {"min": 0.5, "max": 0.5, "n": 1},
            "T_ratio": {"min": 0.2, "max": 0.2, "n": 1},
            "t_box": t_box,
        })
        diagram = run_phase(phase_cfg, str(tmp_path / "cell.csv"))
        times = nm.TimeBox(**t_box).values()
        sweep_cfg = parse_config(base_config_dict(
            t_h={"min": times[0], "max": times[-1], "n": len(times)},
            t_c={"min": times[0], "max": times[-1], "n": len(times)},
        ))
        rows = run_sweep(sweep_cfg, str(tmp_path / "cell_sweep.csv"))
        modes = [row[17] for row in rows]
        counts = diagram.cells[0].mode_counts
        for label in ("Engine", "Heater", "HeatPump", "Other"):
            assert counts[label] == modes.count(label)

    def test_phase_requires_ratio_axes(self, tmp_path):
        cfg = parse_config(base_config_dict())
        with pytest.raises(ConfigError, match="omega_ratio"):
            run_phase(cfg, str(tmp_path / "x.csv"))
