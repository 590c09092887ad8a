"""The per-cell records and labels keep their types and their rules.

A cell's records are built with `tuple.__new__`, which skips the
NamedTuple's arity check, so each record is checked for its class, its
length and its round trip through the class.  The flow and mode labels are
read from tables and module constants; they must answer as the same rules
written as branches below, for every sign pattern, signed zero, value at
and beside SIGN_EPS, NaN and infinity.  Any label that is not "hot" or
"cold" raises ValueError, an unhashable one included.
"""

import math
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmotto as nm
from nmotto.cycle import SIGN_EPS, CycleReport, Flow, Mode, StrokeEnergetics
from nmotto.energetics import _entry
from nmotto.limit_cycle import LimitCycleState


def _assert_record(record, cls):
    assert type(record) is cls
    assert len(record) == len(cls._fields)
    assert record == cls(*record)


@pytest.mark.parametrize("context", ["reference_context", "markov_context"])
def test_a_cell_builds_whole_records(context, request):
    ctx = request.getfixturevalue(context)
    report = nm.evaluate_cycle(ctx, 60.0, 10.0)
    _assert_record(report, CycleReport)
    lc = nm.fixed_point(60.0, 10.0, ctx.hot_grid, ctx.cold_grid)
    _assert_record(lc, LimitCycleState)
    for label, stroke, t in (("hot", ctx.hot_grid, 60.0), ("cold", ctx.cold_grid, 10.0)):
        _assert_record(nm.stroke_energetics(lc, label, stroke, t), StrokeEnergetics)


def test_fixed_point_from_populations_builds_a_whole_record():
    _assert_record(nm.fixed_point_from_populations(0.9, 0.2, 0.8, 0.1), LimitCycleState)


def _classify_mode_branches(w_total, dE_S_h, dE_S_c):
    if w_total > SIGN_EPS:
        return Mode.ENGINE
    if w_total < -SIGN_EPS and dE_S_c > SIGN_EPS:
        return Mode.HEAT_PUMP
    if w_total < -SIGN_EPS and dE_S_h > SIGN_EPS and dE_S_c < -SIGN_EPS:
        return Mode.HEATER
    return Mode.OTHER


def _classify_flow_branches(dE_S, dE_B, label):
    if label not in ("hot", "cold"):
        raise ValueError(f"label must be 'hot' or 'cold', got {label!r}")
    if abs(dE_S) <= SIGN_EPS or abs(dE_B) <= SIGN_EPS:
        return Flow.UNDEFINED
    s_pos = dE_S > 0.0
    if s_pos == (dE_B > 0.0):
        return Flow.ENERGY_DIVISION if s_pos else Flow.UNDEFINED
    return Flow.NORMAL if s_pos == (label == "hot") else Flow.REVERSE


_EDGES = [0.0, SIGN_EPS, math.nextafter(SIGN_EPS, 0.0), math.nextafter(SIGN_EPS, math.inf), math.inf]
signs = st.sampled_from([*_EDGES, *(-x for x in _EDGES), math.nan])
values = st.one_of(signs, st.floats(-1.0, 1.0), st.floats())


@settings(max_examples=2000)
@given(values, values, values)
def test_labels_follow_the_branch_rules(a, b, c):
    assert nm.classify_mode(a, b, c) is _classify_mode_branches(a, b, c)
    for label in ("hot", "cold"):
        assert nm.classify_flow(a, b, label) is _classify_flow_branches(a, b, label)


class _Bath(str, Enum):
    """Labels that are str members of an Enum."""

    HOT = "hot"
    COLD = "cold"


@pytest.mark.parametrize("label", [_Bath.HOT, _Bath.COLD])
def test_a_str_enum_label_reads_its_bath(label, reference_context):
    for s, b in ((0.1, 0.2), (0.1, -0.2), (-0.1, 0.2), (-0.1, -0.2)):
        assert nm.classify_flow(s, b, label) is nm.classify_flow(s, b, label.value)
    lc = nm.fixed_point(60.0, 10.0, reference_context.hot_grid, reference_context.cold_grid)
    assert _entry(lc, label) == _entry(lc, label.value)


@pytest.mark.parametrize("label", ["tepid", "Hot", "", None, b"hot", ["hot"], {"hot": 1}])
def test_a_bad_label_raises_value_error(label, reference_context):
    with pytest.raises(ValueError, match="^label must be 'hot' or 'cold'"):
        nm.classify_flow(0.1, 0.1, label)
    lc = nm.fixed_point(60.0, 10.0, reference_context.hot_grid, reference_context.cold_grid)
    with pytest.raises(ValueError, match="^label must be 'hot' or 'cold'"):
        nm.stroke_energetics(lc, label, reference_context.hot_grid, 60.0)
