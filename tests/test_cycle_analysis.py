import json
import math
import pickle
import struct
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmotto as nm
from nmotto.cycle import LABEL_FIELDS, REPORT_FIELDS, SIGN_EPS, Flow, Mode
from nmotto.sweep import evaluate_cycle

from conftest import T_C, T_H


def _report(hot=(0.0, 0.0, 0.0), cold=(0.0, 0.0, 0.0), lc=None):
    """The report of hand-made strokes at equal frequencies, so W_total = dE_I_h + dE_I_c."""
    lc = lc or nm.LimitCycleState(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
    return nm.assemble_report(60.0, 10.0, lc, 1.0, 1.0,
                              nm.StrokeEnergetics(*hot), nm.StrokeEnergetics(*cold))


class TestWorks:
    def test_equal_frequencies_cancel_adiabats(self, hot_grid):
        lc = nm.fixed_point(20.0, 20.0, hot_grid, hot_grid)
        rep = _report(hot=(0.0, 0.01, -0.01), cold=(0.0, 0.02, -0.02), lc=lc)
        assert rep.W_adiab_h == 0.0 and rep.W_adiab_c == 0.0
        assert rep.W_total == -0.03

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
        rep = _report(hot=(0.0, 1.0, -1.0), cold=(0.5, 4.0, -2.0))
        assert rep.alpha_c == 0.5
        assert rep.alpha_h == 2.0

    def test_absent_on_zero_denominator(self):
        rep = _report(hot=(0.0, 1.0, -1.0), cold=(0.0, 0.0, -2.0))
        assert rep.alpha_c is None and rep.alpha_h is None

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
        rep = _report(hot=(0.0, 0.1, -0.1), cold=(0.3, -0.3, 0.0))
        assert rep.W_total == -0.1 and rep.mode is Mode.HEAT_PUMP
        assert rep.eta is None
        assert rep.cop == pytest.approx(3.0)

    def test_eta_only_for_engines(self):
        rep = _report(hot=(0.1, -0.15, 0.05))
        assert rep.W_total == 0.05 and rep.mode is Mode.ENGINE
        assert rep.eta == pytest.approx(0.5)
        # the mode follows the work: with the same heat a non-engine has no eta
        rep = _report(hot=(0.1, -0.05, -0.05))
        assert rep.mode is not Mode.ENGINE
        assert rep.eta is None

    def test_absent_on_zero_work(self):
        rep = _report(cold=(0.3, -0.3, 0.0))
        assert rep.W_total == 0.0
        assert (rep.eta, rep.cop) == (None, None)

    def test_engine_efficiency_below_carnot_on_reproduction_line(self, reference_context):
        carnot = 1.0 - T_C / T_H
        seen_engine = False
        for t_c in np.linspace(25.0, 120.0, 20):
            rep = evaluate_cycle(reference_context, 60.0, float(t_c))
            if rep.mode is Mode.ENGINE:
                seen_engine = True
                assert rep.eta < carnot
        assert seen_engine


def _reference_works(lc, omega_h, omega_c, dE_I_h, dE_I_c):
    """The former `cycle.works`, as it was written."""
    w_adiab_h = (omega_h - omega_c) * lc.rho11_h
    w_adiab_c = (omega_c - omega_h) * lc.rho11_c
    w_detach_h = dE_I_h
    w_detach_c = dE_I_c
    total = w_adiab_h + w_adiab_c + w_detach_h + w_detach_c
    return w_adiab_h, w_adiab_c, w_detach_h, w_detach_c, total


def _reference_nonmarkov_index(dE_I_c, dE_B_c, dE_I_h, dE_S_c):
    """The former `cycle.nonmarkov_index`: (alpha_c, alpha_h)."""
    alpha_c = abs(dE_I_c / dE_B_c) if abs(dE_B_c) > SIGN_EPS else None
    alpha_h = abs(dE_I_h / dE_S_c) if abs(dE_S_c) > SIGN_EPS else None
    return alpha_c, alpha_h


def _reference_performance(w_total, dE_S_h, dE_S_c, mode):
    """The former `cycle.performance`: (eta, cop)."""
    eta = w_total / dE_S_h if (mode is Mode.ENGINE and dE_S_h > SIGN_EPS) else None
    cop = abs(dE_S_c) / abs(w_total) if abs(w_total) > SIGN_EPS else None
    return eta, cop


def _bits(x):
    return None if x is None else struct.pack("<d", x)


# Exact zeros, the gate edges +-SIGN_EPS and the floats on either side of them.
_EDGES = [0.0, -0.0] + [
    sign * v for sign in (1.0, -1.0)
    for v in (SIGN_EPS, math.nextafter(SIGN_EPS, 0.0), math.nextafter(SIGN_EPS, 1.0))
]
_values = st.sampled_from(_EDGES) | st.floats(allow_nan=False, allow_infinity=False)
_strokes = st.builds(nm.StrokeEnergetics, _values, _values, _values)
_states = st.builds(nm.LimitCycleState, *[_values] * 7)


@settings(max_examples=300)
@given(_states, _values, _values, _strokes, _strokes)
def test_assembled_columns_have_the_bits_of_the_former_helpers(lc, omega_h, omega_c, hot, cold):
    rep = nm.assemble_report(60.0, 10.0, lc, omega_h, omega_c, hot, cold)
    works = _reference_works(lc, omega_h, omega_c, hot.dE_I, cold.dE_I)
    mode = nm.classify_mode(works[4], hot.dE_S, cold.dE_S)
    alpha_c, alpha_h = _reference_nonmarkov_index(cold.dE_I, cold.dE_B, hot.dE_I, cold.dE_S)
    eta, cop = _reference_performance(works[4], hot.dE_S, cold.dE_S, mode)
    got = (rep.W_adiab_h, rep.W_adiab_c, rep.W_detach_h, rep.W_detach_c, rep.W_total,
           rep.alpha_h, rep.alpha_c, rep.eta, rep.cop)
    want = (*works, alpha_h, alpha_c, eta, cop)
    assert [_bits(x) for x in got] == [_bits(x) for x in want]
    assert rep.mode is mode


def _eager_find_boundaries(evaluate, t_c_min, t_c_max, step, rtol):
    """The eager search: evaluate every scan point, then bisect with fresh calls.

    It reads the same scan points and brackets as `find_boundaries`, and also
    returns an exact zero at the last scan point.
    """
    n = int(math.floor((t_c_max - t_c_min) / step)) + 1
    ts = [t_c_min + i * step for i in range(n)]
    if ts[-1] < t_c_max:
        ts.append(t_c_max)
    reports = [evaluate(t) for t in ts]

    def refine(value_of):
        prev_t, prev_v = ts[0], value_of(reports[0])
        for t, rep in zip(ts[1:], reports[1:]):
            v = value_of(rep)
            if prev_v == 0.0:
                return prev_t
            if v != 0.0 and (v > 0.0) != (prev_v > 0.0):
                return nm.bisect_sign_change(lambda x: value_of(evaluate(x)), prev_t, t, rtol)
            prev_t, prev_v = t, v
        return prev_t if prev_v == 0.0 else None

    return refine(lambda r: r.dE_S_h), refine(lambda r: r.W_total)


def _piecewise_linear(knots, values):
    """The broken line through (knots, values), constant beyond its ends."""
    def f(t):
        if t <= knots[0]:
            return values[0]
        for x0, y0, x1, y1 in zip(knots, values, knots[1:], values[1:]):
            if t == x1:
                return y1
            if t < x1:
                return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
        return values[-1]
    return f


class _Unreadable(ArithmeticError):
    pass


@st.composite
def _synthetic_searches(draw):
    t_c_min = draw(st.floats(0.05, 10.0))
    step = draw(st.floats(0.01, 3.0))
    n = draw(st.integers(1, 80))
    t_c_max = t_c_min + draw(st.floats(0.3, 1.0)) * n * step

    def observable():
        # knots on scan points make exact zeros there
        knot = st.integers(0, n).map(lambda i: t_c_min + i * step) | st.floats(t_c_min, t_c_max)
        knots = sorted(set(draw(st.lists(knot, min_size=2, max_size=6))))
        values = draw(st.lists(st.floats(-2.0, 2.0),
                               min_size=len(knots), max_size=len(knots)))
        return _piecewise_linear(knots, values)

    heat, work = observable(), observable()
    rtol = draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
    return heat, work, t_c_min, t_c_max, step, rtol


class TestFindBoundaries:
    @settings(max_examples=300)
    @given(_synthetic_searches())
    def test_lazy_search_equals_eager_reference(self, search):
        heat, work, t_c_min, t_c_max, step, rtol = search
        calls = Counter()

        def evaluate(t):
            calls[t] += 1
            return SimpleNamespace(dE_S_h=heat(t), W_total=work(t))

        found = nm.find_boundaries(evaluate, t_c_min, t_c_max, step, rtol)
        assert max(calls.values()) == 1
        assert found == _eager_find_boundaries(evaluate, t_c_min, t_c_max, step, rtol)

    def test_reference_search_evaluates_each_read_time_once(self, reference_context):
        calls = Counter()

        def evaluate(t_c):
            calls[t_c] += 1
            return evaluate_cycle(reference_context, 60.0, t_c)

        found = nm.find_boundaries(evaluate, 0.5, 120.0, 0.5, rtol=1e-6)
        assert max(calls.values()) == 1
        assert sum(calls.values()) <= 80  # the eager scan made 276 calls
        assert found == _eager_find_boundaries(evaluate, 0.5, 120.0, 0.5, 1e-6)

    def test_zero_at_the_last_scan_point(self):
        ev = lambda t: SimpleNamespace(dE_S_h=t - 10.0, W_total=1.0)
        assert nm.find_boundaries(ev, 0.5, 10.0, 0.5) == (10.0, None)

    def test_zero_scan_point_returned_when_read(self):
        seen = []

        def evaluate(t):
            seen.append(t)
            return SimpleNamespace(dE_S_h=3.0 - t, W_total=3.0 - t)

        assert nm.find_boundaries(evaluate, 1.0, 10.0, 1.0) == (3.0, 3.0)
        assert seen == [1.0, 2.0, 3.0]

    def test_failure_beyond_both_brackets_is_never_read(self):
        def evaluate(t):
            if t > 10.0:
                raise _Unreadable(f"no report at {t}")
            return SimpleNamespace(dE_S_h=5.2 - t, W_total=8.3 - t)

        t0, t1 = nm.find_boundaries(evaluate, 0.5, 20.0, 0.5, rtol=1e-9)
        assert t0 == pytest.approx(5.2, rel=1e-8)
        assert t1 == pytest.approx(8.3, rel=1e-8)

    def test_failure_at_a_read_time_propagates(self):
        def evaluate(t):
            if t == 6.0:  # past the heat bracket, before the work bracket
                raise _Unreadable(f"no report at {t}")
            return SimpleNamespace(dE_S_h=5.2 - t, W_total=8.3 - t)

        with pytest.raises(_Unreadable, match="no report at 6.0"):
            nm.find_boundaries(evaluate, 0.5, 20.0, 0.5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_arguments_rejected(self, position, value):
        def evaluate(t):
            raise AssertionError("a rejected range evaluates nothing")

        args = [0.5, 10.0, 0.5]
        args[position] = value
        with pytest.raises(ValueError, match="scan range"):
            nm.find_boundaries(evaluate, *args)

    def test_scan_count_beyond_the_float_range_rejected(self):
        ev = lambda t: SimpleNamespace(dE_S_h=1.0, W_total=1.0)
        with pytest.raises(ValueError, match="scan range"):
            nm.find_boundaries(ev, 0.5, 1e300, 1e-300)

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

    def test_markov_reference_has_no_boundaries(self, markov_context):
        ev = lambda tc: evaluate_cycle(markov_context, 60.0, float(tc))
        t0, t1 = nm.find_boundaries(ev, 0.5, 120.0, 2.0)
        assert t0 is None and t1 is None

    def test_invalid_range_rejected(self, reference_context):
        ev = lambda tc: evaluate_cycle(reference_context, 60.0, float(tc))
        with pytest.raises(ValueError):
            nm.find_boundaries(ev, 0.0, 10.0, 1.0)


class TestReportSerialization:
    def test_round_trip_fields(self, reference_context):
        rep = evaluate_cycle(reference_context, 60.0, 30.0)
        d = json.loads(json.dumps(rep._asdict()))
        assert d["mode"] == rep.mode.value
        assert d["t_h"] == 60.0
        assert d["W_total"] == rep.W_total
        assert set(d) == {
            "t_h", "t_c", "dE_S_h", "dE_B_h", "dE_I_h", "dE_S_c", "dE_B_c", "dE_I_c",
            "W_adiab_h", "W_adiab_c", "W_detach_h", "W_detach_c", "W_total",
            "alpha_h", "alpha_c", "eta", "cop", "mode", "flow_h", "flow_c",
        }


class TestRecords:
    """The per-cell records are NamedTuples: immutable, without a __dict__,
    picklable, replaceable and read by position in REPORT_FIELDS order."""

    @pytest.fixture
    def records(self, reference_context):
        lc = nm.fixed_point(60.0, 30.0, reference_context.hot_grid, reference_context.cold_grid)
        hot = nm.stroke_energetics(lc, "hot", reference_context.hot_grid, 60.0)
        return lc, hot, evaluate_cycle(reference_context, 60.0, 30.0)

    def test_frozen_and_slotted(self, records):
        for record in records:
            name = record._fields[0]
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
            assert not hasattr(record, "__dict__")

    def test_pickle_round_trip(self, records):
        for record in records:
            assert pickle.loads(pickle.dumps(record)) == record

    def test_replace(self, records):
        report = records[2]
        assert report.eta is not None
        changed = report._replace(eta=None)
        assert changed.eta is None
        assert changed._replace(eta=report.eta) == report

    def test_positions_follow_the_schema(self, records):
        # sweep._report_line formats the report by slices of the tuple
        report = records[2]
        assert tuple(report) == tuple(getattr(report, name) for name in REPORT_FIELDS)
        assert REPORT_FIELDS[-len(LABEL_FIELDS):] == LABEL_FIELDS
        assert report[-len(LABEL_FIELDS):] == (report.mode, report.flow_h, report.flow_c)

    def test_schema_unchanged(self):
        assert REPORT_FIELDS == (
            "t_h", "t_c", "dE_S_h", "dE_B_h", "dE_I_h", "dE_S_c", "dE_B_c", "dE_I_c",
            "W_adiab_h", "W_adiab_c", "W_detach_h", "W_detach_c", "W_total",
            "alpha_h", "alpha_c", "eta", "cop", "mode", "flow_h", "flow_c",
        )
        assert nm.CSV_HEADER == ",".join(REPORT_FIELDS) + ",error"


def test_bisection_with_zero_rtol_ends_inside_the_bracket():
    # No midpoint is an exact zero, and a bracket of adjacent floats never
    # narrows: only the cap on the halvings ends the loop.
    root = nm.bisect_sign_change(lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0, rtol=0.0)
    assert 0.0 <= root <= 1.0
    assert root == pytest.approx(0.3, abs=1e-15)


def test_bisection_returns_a_zero_at_either_end_and_needs_a_sign_change():
    assert nm.bisect_sign_change(lambda t: t - 2.0, 2.0, 10.0) == 2.0
    assert nm.bisect_sign_change(lambda t: t - 10.0, 2.0, 10.0) == 10.0
    with pytest.raises(ValueError, match="^interval does not bracket a sign change$"):
        nm.bisect_sign_change(lambda t: t + 1.0, 2.0, 10.0)


@pytest.mark.parametrize("lo, hi", [(10.0, 2.0), (3.0, 3.0), (math.nan, 10.0)],
                         ids=["reversed", "empty", "nan"])
def test_bisection_rejects_a_bracket_without_lo_below_hi(lo, hi):
    # A reversed bracket's negative width used to pass the convergence test,
    # so its midpoint came back as the root.
    calls = []

    def f(t):
        calls.append(t)
        return t - 3.0

    with pytest.raises(ValueError, match="lo < hi"):
        nm.bisect_sign_change(f, lo, hi)
    assert calls == []
    assert nm.bisect_sign_change(f, 2.0, 10.0) == 3.0
