"""Properties of the cycle: random weak-coupling baths on ~1000-node grids,
and the reference baths at couplings up to 0.4."""

from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmotto as nm

from conftest import T_C, T_H, base_config_dict, markov_reference_cycle

STEP = 0.05
NODES = 1000

couplings = st.floats(1e-3, 0.05)
cutoffs = st.floats(0.2, 2.0)
temperatures = st.floats(0.1, 2.0)
frequencies = st.floats(0.3, 1.5)
node_counts = st.integers(20, NODES)  # a stroke time is a node: k * STEP
stroke_times = st.floats(1e-3, 1e4)


def _strokes(coupling, cutoff, temperature, omega, step=STEP):
    bath = nm.BathSpec(coupling, cutoff, temperature)
    return nm.stroke_tables(bath, omega, NODES * STEP, step)


def _strokes_or_model_limit(*bath):
    """The stroke's tables, or None where its population leaves [0, 1].

    Such an excursion must be the TCL2 model's, not the grid's: the same
    bath on a 4x finer grid leaves [0, 1] too, by the same amount within 1%.
    """
    try:
        return _strokes(*bath)
    except nm.PositivityError as coarse:
        with pytest.raises(nm.PositivityError) as fine:
            _strokes(*bath, step=STEP / 4)
        assert fine.value.excursion == pytest.approx(coarse.excursion, rel=0.01)
        return None


@settings(max_examples=50)
@given(couplings, cutoffs, temperatures, frequencies, node_counts,
       couplings, cutoffs, temperatures, frequencies, node_counts)
# A high cutoff, a low temperature and a high frequency: the hot population
# from |0> rises to 1 + 2.2e-7 by tau = 50, at h and at h/4 alike.
@example(0.048828125, 2.0, 0.109375, 1.5, 20, 0.03125, 1.0, 1.0, 1.0, 20)
def test_limit_cycle_and_stroke_records(lam_h, cut_h, temp_h, omega_h, k_h,
                                        lam_c, cut_c, temp_c, omega_c, k_c):
    hot = _strokes_or_model_limit(lam_h, cut_h, temp_h, omega_h)
    cold = _strokes_or_model_limit(lam_c, cut_c, temp_c, omega_c)
    if hot is None or cold is None:
        return
    t_h, t_c = k_h * STEP, k_c * STEP
    lc = nm.fixed_point(t_h, t_c, hot, cold)
    for p in (lc.P_h, lc.P_c, lc.rho00_h, lc.rho11_h, lc.rho00_c, lc.rho11_c):
        assert 0.0 <= p <= 1.0
    # one cycle of the raw map leaves the closed-form fixed point in place
    assert abs(nm.iterate_map(lc.P_h, 1, t_h, t_c, hot, cold) - lc.P_h) < 1e-12

    ctx = nm.CycleContext(omega_h=omega_h, omega_c=omega_c,
                          hot_grid=hot, cold_grid=cold)
    rep = nm.evaluate_cycle(ctx, t_h, t_c)
    for label, grid, t in (("hot", hot, t_h), ("cold", cold, t_c)):
        s = nm.stroke_energetics(lc, label, grid, t)
        assert s.dE_I == -s.dE_S - s.dE_B
        # the prefix tables agree with the explicit integral on a node
        assert abs(s.dE_I - nm.eq_interaction_integral(lc, label, grid, t)) <= 1e-12
        fields = tuple(getattr(rep, f"dE_{x}_{label[0]}") for x in "SBI")
        assert fields == (s.dE_S, s.dE_B, s.dE_I)


@settings(max_examples=100)
@given(couplings, cutoffs, temperatures, frequencies, stroke_times,
       couplings, cutoffs, temperatures, frequencies, stroke_times)
def test_markov_context_matches_the_reference_cycle(lam_h, cut_h, temp_h, omega_h, t_h,
                                                    lam_c, cut_c, temp_c, omega_c, t_c):
    hot = nm.BathSpec(lam_h, cut_h, temp_h)
    cold = nm.BathSpec(lam_c, cut_c, temp_c)
    ctx = nm.CycleContext(omega_h=omega_h, omega_c=omega_c,
                          hot_grid=nm.MarkovStroke(hot, omega_h),
                          cold_grid=nm.MarkovStroke(cold, omega_c))
    try:
        expected = markov_reference_cycle(t_h, t_c, hot, cold, omega_h, omega_c)
    except nm.SingularMapError:
        with pytest.raises(nm.SingularMapError):
            nm.evaluate_cycle(ctx, t_h, t_c)
        return
    assert nm.evaluate_cycle(ctx, t_h, t_c) == expected


@settings(max_examples=100)
@given(st.floats(0.0, 130.0, exclude_min=True), st.floats(0.0, 130.0, exclude_min=True))
def test_first_law_over_one_cycle(reference_context, markov_context, t_h, t_c):
    # The adiabatic works move (omega_h - omega_c) per excitation and the
    # qubit heats read each stroke's frequency; with P_h = rho00_c and
    # P_c = rho00_h the qubit's energy closes over one cycle.
    for ctx in (reference_context, markov_context):
        try:
            rep = nm.evaluate_cycle(ctx, t_h, t_c)
        except nm.SingularMapError:  # a stroke too short to mix the populations
            continue
        work, heat = rep.W_adiab_h + rep.W_adiab_c, rep.dE_S_h + rep.dE_S_c
        scale = abs(rep.W_adiab_h) + abs(rep.W_adiab_c) + abs(rep.dE_S_h) + abs(rep.dE_S_c)
        assert abs(work - heat) <= 1e-12 * scale


@cache
def _reference_contexts(coupling):
    """The reference cycle's TCL2 and Markov contexts, both baths at this
    coupling, for stroke times up to 600."""
    return [nm.build_context(nm.parse_config(base_config_dict(
        lambda_h=coupling, lambda_c=coupling, dynamics=dynamics)), 600.0, 600.0)
        for dynamics in ("tcl2", "markov")]


@settings(max_examples=100)
@given(st.sampled_from([0.01, 0.1, 0.4]), st.floats(0.05, 600.0), st.floats(0.05, 600.0))
def test_second_law_over_one_cycle(coupling, t_h, t_c):
    # Over a limit cycle the qubit returns to its state, so the entropy
    # production is the baths' alone: sigma = dE_B_h/T_h + dE_B_c/T_c >= 0
    # (exact for the true dynamics from a product state; measured for TCL2).
    for ctx in _reference_contexts(coupling):
        rep = nm.evaluate_cycle(ctx, t_h, t_c)
        assert rep.dE_B_h / T_H + rep.dE_B_c / T_C >= 0.0
