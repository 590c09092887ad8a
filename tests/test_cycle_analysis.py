import math

import numpy as np
import pytest

import nmotto as nm
from nmotto.cycle import CycleReport, Flow, Mode
from nmotto.sweep import evaluate_cycle

from conftest import OMEGA_C, OMEGA_H, T_C, T_H


def _stub_report(**overrides):
    fields = dict(
        t_h=60.0, t_c=10.0,
        dE_S_h=0.0, dE_B_h=0.0, dE_I_h=0.0,
        dE_S_c=0.0, dE_B_c=0.0, dE_I_c=0.0,
        W_adiab_h=0.0, W_adiab_c=0.0, W_detach_h=0.0, W_detach_c=0.0,
        W_total=0.0, alpha_h=None, alpha_c=None, eta=None, cop=None,
        mode=Mode.OTHER, flow_h=Flow.UNDEFINED, flow_c=Flow.UNDEFINED,
    )
    fields.update(overrides)
    return CycleReport(**fields)


class TestWorks:
    def test_equal_frequencies_cancel_adiabats(self, hot_grid):
        lc = nm.fixed_point(20.0, 20.0, hot_grid, hot_grid)
        w = nm.works(lc, 1.0, 1.0, -0.01, -0.02)
        assert w[0] == 0.0 and w[1] == 0.0
        assert w[4] == -0.03

    def test_total_is_exact_sum(self, reference_context):
        rep = evaluate_cycle(reference_context, 60.0, 30.0)
        assert rep.W_total == rep.W_adiab_h + rep.W_adiab_c + rep.W_detach_h + rep.W_detach_c
        assert rep.W_detach_h == rep.dE_I_h
        assert rep.W_detach_c == rep.dE_I_c

    def test_detachment_work_negative_total_can_flip(self, reference_context):
        small = evaluate_cycle(reference_context, 60.0, 2.0)
        large = evaluate_cycle(reference_context, 60.0, 110.0)
        assert small.W_total < 0.0
        assert large.W_total > 0.0


class TestClassifyMode:
    def test_named_regions(self):
        assert nm.classify_mode(-0.1, -0.05, 0.02) is Mode.HEAT_PUMP
        assert nm.classify_mode(-0.05, 0.1, -0.08) is Mode.HEATER
        assert nm.classify_mode(0.02, 0.1, -0.08) is Mode.ENGINE

    def test_unnamed_sign_patterns_are_other(self):
        assert nm.classify_mode(-0.1, -0.05, -0.02) is Mode.OTHER

    def test_degenerate_signs_are_other(self):
        assert nm.classify_mode(0.0, 0.1, -0.1) is Mode.OTHER
        assert nm.classify_mode(5e-13, 0.1, -0.1) is Mode.OTHER
        assert nm.classify_mode(-0.1, 0.1, 5e-13) is Mode.OTHER

    def test_exhaustive_and_exclusive_for_definite_signs(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            w, dh, dc = rng.choice([-1.0, 1.0], 3) * rng.uniform(0.01, 1.0, 3)
            mode = nm.classify_mode(w, dh, dc)
            assert mode in (Mode.ENGINE, Mode.HEAT_PUMP, Mode.HEATER, Mode.OTHER)
            if w > 0:
                assert mode is Mode.ENGINE


class TestClassifyFlow:
    @pytest.mark.parametrize("des,deb,label,expected", [
        (0.01, 0.02, "hot", Flow.ENERGY_DIVISION),
        (0.01, -0.02, "hot", Flow.NORMAL),
        (-0.01, 0.02, "hot", Flow.REVERSE),
        (-0.01, -0.02, "hot", Flow.UNDEFINED),
        (0.01, 0.02, "cold", Flow.ENERGY_DIVISION),
        (-0.01, 0.02, "cold", Flow.NORMAL),
        (0.01, -0.02, "cold", Flow.REVERSE),
        (-0.01, -0.02, "cold", Flow.UNDEFINED),
        (0.0, 0.02, "hot", Flow.UNDEFINED),
        (0.01, 5e-13, "cold", Flow.UNDEFINED),
    ])
    def test_table(self, des, deb, label, expected):
        assert nm.classify_flow(des, deb, label) is expected

    def test_bad_label(self):
        with pytest.raises(ValueError):
            nm.classify_flow(0.1, 0.1, "tepid")

    def test_hot_bath_never_double_negative_on_reproduction_line(self, reference_context):
        for t_c in np.linspace(0.5, 120.0, 60):
            rep = evaluate_cycle(reference_context, 60.0, float(t_c))
            if abs(rep.dE_S_h) > 1e-12 and abs(rep.dE_B_h) > 1e-12:
                assert not (rep.dE_S_h < 0.0 and rep.dE_B_h < 0.0)
                assert rep.flow_h in (Flow.ENERGY_DIVISION, Flow.NORMAL, Flow.REVERSE)


class TestNonmarkovIndex:
    def test_plain_arithmetic(self):
        alpha_c, alpha_h = nm.nonmarkov_index(-2.0, 4.0, -1.0, 0.5)
        assert alpha_c == 0.5
        assert alpha_h == 2.0

    def test_absent_on_zero_denominator(self):
        alpha_c, alpha_h = nm.nonmarkov_index(-2.0, 0.0, -1.0, 0.0)
        assert alpha_c is None and alpha_h is None

    def test_division_region_has_alpha_at_least_one(self, reference_context):
        rep = evaluate_cycle(reference_context, 60.0, 1.0)
        assert rep.flow_c is Flow.ENERGY_DIVISION
        assert rep.alpha_c >= 1.0

    def test_equivalence_with_energy_division_on_cold_bath(self, reference_context):
        for t_c in np.linspace(0.5, 120.0, 60):
            rep = evaluate_cycle(reference_context, 60.0, float(t_c))
            if abs(rep.dE_S_c) > 1e-12 and abs(rep.dE_B_c) > 1e-12:
                assert (rep.alpha_c >= 1.0) == (rep.flow_c is Flow.ENERGY_DIVISION)


class TestPerformance:
    def test_cop_arithmetic(self):
        rep = _stub_report(dE_S_c=-0.3, W_total=-0.1, mode=Mode.HEAT_PUMP)
        eta, cop = nm.performance(rep.W_total, rep.dE_S_h, rep.dE_S_c, rep.mode)
        assert eta is None
        assert cop == pytest.approx(3.0)

    def test_eta_only_for_engines(self):
        rep = _stub_report(W_total=0.05, dE_S_h=0.1, mode=Mode.ENGINE)
        eta, cop = nm.performance(rep.W_total, rep.dE_S_h, rep.dE_S_c, rep.mode)
        assert eta == pytest.approx(0.5)
        rep = _stub_report(W_total=0.05, dE_S_h=0.1, mode=Mode.OTHER)
        assert nm.performance(rep.W_total, rep.dE_S_h, rep.dE_S_c, rep.mode)[0] is None

    def test_absent_on_zero_work(self):
        rep = _stub_report(W_total=0.0, dE_S_c=0.3)
        assert nm.performance(rep.W_total, rep.dE_S_h, rep.dE_S_c, rep.mode) == (None, None)

    def test_engine_efficiency_below_carnot_on_reproduction_line(self, reference_context):
        carnot = 1.0 - T_C / T_H
        seen_engine = False
        for t_c in np.linspace(25.0, 120.0, 20):
            rep = evaluate_cycle(reference_context, 60.0, float(t_c))
            if rep.mode is Mode.ENGINE:
                seen_engine = True
                assert rep.eta < carnot
        assert seen_engine


class TestFindBoundaries:
    def test_reproduction_line_boundaries(self, reference_context):
        ev = lambda tc: evaluate_cycle(reference_context, 60.0, float(tc))
        t0, t1 = nm.find_boundaries(ev, 0.5, 120.0, 1.0)
        assert t0 is not None and t1 is not None
        assert 0.0 < t0 < t1
        # mode sequence around the boundaries
        assert ev(0.5 * t0).mode is Mode.HEAT_PUMP
        assert ev(0.5 * (t0 + t1)).mode is Mode.HEATER
        assert ev(t1 + 10.0).mode is Mode.ENGINE

    def test_monotone_scan_returns_absent(self, reference_context):
        ev = lambda tc: evaluate_cycle(reference_context, 60.0, float(tc))
        t0, t1 = nm.find_boundaries(ev, 40.0, 110.0, 5.0)
        assert t0 is None and t1 is None

    def test_markov_reference_has_no_boundaries(self, hot_bath, cold_bath):
        ev = lambda tc: nm.markov_cycle(60.0, float(tc), hot_bath, cold_bath, OMEGA_H, OMEGA_C)
        t0, t1 = nm.find_boundaries(ev, 0.5, 120.0, 2.0)
        assert t0 is None and t1 is None

    def test_invalid_range_rejected(self, reference_context):
        ev = lambda tc: evaluate_cycle(reference_context, 60.0, float(tc))
        with pytest.raises(ValueError):
            nm.find_boundaries(ev, 0.0, 10.0, 1.0)


class TestReportSerialization:
    def test_round_trip_fields(self, reference_context):
        rep = evaluate_cycle(reference_context, 60.0, 30.0)
        d = rep.to_dict()
        assert d["mode"] == rep.mode.value
        assert d["t_h"] == 60.0
        assert d["W_total"] == rep.W_total
        assert set(d) == {
            "t_h", "t_c", "dE_S_h", "dE_B_h", "dE_I_h", "dE_S_c", "dE_B_c", "dE_I_c",
            "W_adiab_h", "W_adiab_c", "W_detach_h", "W_detach_c", "W_total",
            "alpha_h", "alpha_c", "eta", "cop", "mode", "flow_h", "flow_c",
        }
