import math

import numpy as np
import pytest

import nmotto as nm
from nmotto.sweep import evaluate_cycle

from conftest import CUTOFF, LAMBDA, OMEGA_C, OMEGA_H, T_C, T_H, markov_context_of
from oracles import markov_population


def _node_time(grid, t):
    return grid.step * round(t / grid.step)


class TestQubitEnergyChange:
    def test_short_cold_stroke_vanishes(self, hot_grid, cold_grid):
        lc = nm.fixed_point(60.0, 1e-4, hot_grid, cold_grid)
        assert abs(nm.stroke_energetics(lc, "cold", cold_grid, 1e-4).dE_S) < 1e-5

    def test_ratio_identity(self, hot_grid, cold_grid):
        # populations are exchanged between strokes, so the heats are
        # proportional with opposite signs
        rng = np.random.default_rng(2)
        for _ in range(10):
            t_h = float(rng.uniform(1.0, 120.0))
            t_c = float(rng.uniform(1.0, 120.0))
            lc = nm.fixed_point(t_h, t_c, hot_grid, cold_grid)
            des_h = nm.stroke_energetics(lc, "hot", hot_grid, t_h).dE_S
            des_c = nm.stroke_energetics(lc, "cold", cold_grid, t_c).dE_S
            assert abs(des_h * OMEGA_C + des_c * OMEGA_H) < 1e-10

    def test_cold_heat_positive_at_short_times(self, reference_context):
        # short-time transient drives the qubit toward equal populations,
        # so it absorbs energy even from the cold bath
        rep = evaluate_cycle(reference_context, 60.0, 1.0)
        assert rep.dE_S_c > 0.0


class TestBathEnergyChange:
    def test_decoupled_bath_moves_nothing(self):
        grid = nm.stroke_tables(nm.BathSpec(0.0, CUTOFF, T_H), OMEGA_H, 10.0)
        cold = nm.stroke_tables(nm.BathSpec(LAMBDA, CUTOFF, T_C), OMEGA_C, 10.0)
        lc = nm.fixed_point(5.0, 5.0, grid, cold)
        s = nm.stroke_energetics(lc, "hot", grid, 5.0)
        assert s.dE_B == pytest.approx(-s.dE_S, abs=1e-18)

    def test_rounding_past_t_max_reads_t_max(self, hot_grid, cold_grid):
        t_max, step = cold_grid.t_max, cold_grid.step
        late = t_max + 0.5e-9 * step
        assert late > t_max
        lc = nm.fixed_point(60.0, t_max, hot_grid, cold_grid)
        assert nm.stroke_energetics(lc, "cold", cold_grid, late) == \
            nm.stroke_energetics(lc, "cold", cold_grid, t_max)

    def test_beyond_t_max_rejected(self, hot_grid, cold_grid):
        lc = nm.fixed_point(60.0, cold_grid.t_max, hot_grid, cold_grid)
        with pytest.raises(ValueError, match="t_max"):
            nm.stroke_energetics(lc, "cold", cold_grid, cold_grid.t_max + 2e-9 * cold_grid.step)

    def test_interaction_energy_converges_at_long_times(self, hot_grid, cold_grid):
        # tail bound from the kernel decay: |D1| <= c/tau^2 with
        # c = 2*lam*(cutoff^2 + 2*T*cutoff)/cutoff^2 ... evaluated directly below
        t = _node_time(cold_grid, 10.0 / CUTOFF)
        values = {}
        for mult in (1, 2, 4):
            lc = nm.fixed_point(60.0, mult * t, hot_grid, cold_grid)
            values[mult] = nm.stroke_energetics(lc, "cold", cold_grid, mult * t).dE_I
        c_tail = abs(nm.noise_kernel(t, nm.BathSpec(LAMBDA, CUTOFF, T_C))) * t * t
        bound = 3.0 * 2.0 * c_tail / (OMEGA_C * t * t)
        assert abs(values[1] - values[2]) < bound
        assert abs(values[2] - values[4]) < abs(values[1] - values[2])


class TestInteractionEnergyChange:
    def test_adiabatic_work_shrinks_as_frequencies_merge(self):
        # W_adiab scales with (omega_h - omega_c) per excitation
        totals = []
        for omega_c in (0.5, 0.8, 0.95):
            rep = evaluate_cycle(markov_context_of(omega_c=omega_c), 40.0, 40.0)
            totals.append(rep.W_adiab_h + rep.W_adiab_c)
        assert totals[0] > totals[1] > totals[2] > 0.0


class TestConservation:
    def test_exact_closure_and_independent_route(self, hot_grid, cold_grid):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t_h = hot_grid.step * int(rng.integers(20, int(120.0 / hot_grid.step)))
            t_c = cold_grid.step * int(rng.integers(20, int(120.0 / cold_grid.step)))
            lc = nm.fixed_point(t_h, t_c, hot_grid, cold_grid)
            for label, grid, t in (("hot", hot_grid, t_h), ("cold", cold_grid, t_c)):
                s = nm.stroke_energetics(lc, label, grid, t)
                assert s.dE_I == -s.dE_S - s.dE_B
                assert abs(s.dE_S + s.dE_B + s.dE_I) < 1e-14
                explicit = nm.eq_interaction_integral(lc, label, grid, t)
                assert abs(s.dE_I - explicit) < 1e-9

    def test_independent_route_tight_on_fine_grids(self, hot_bath, cold_bath):
        gh = nm.stroke_tables(hot_bath, OMEGA_H, 40.0, 0.025)
        gc = nm.stroke_tables(cold_bath, OMEGA_C, 40.0, 0.025)
        rng = np.random.default_rng(17)
        for _ in range(10):
            t_h = gh.step * int(rng.integers(40, gh.n_points - 1))
            t_c = gc.step * int(rng.integers(40, gc.n_points - 1))
            lc = nm.fixed_point(t_h, t_c, gh, gc)
            for label, grid, t in (("hot", gh, t_h), ("cold", gc, t_c)):
                s = nm.stroke_energetics(lc, label, grid, t)
                assert abs(s.dE_I - nm.eq_interaction_integral(lc, label, grid, t)) < 1e-10

    def test_independent_route_reads_a_stroke_as_its_grid(self, monkeypatch, hot_bath, hot_grid, cold_grid):
        # A stroke keeps none of its grid's tables: the route rebuilds the grid
        # once per call, and gives the float it gives on that grid itself.
        grid = nm.build_kernel_grid(hot_bath, OMEGA_H, 130.0)
        assert grid.n_points == hot_grid.n_points
        builds, build = [], nm.energetics.build_kernel_grid

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(nm.energetics, "build_kernel_grid", counted)
        lc = nm.fixed_point(60.0, 60.0, hot_grid, cold_grid)
        step = grid.step
        for k in (1, 40, 1201, grid.n_points - 1):
            node = k * step
            for t in (node, math.nextafter(node, 0.0), math.nextafter(node, math.inf),
                      node + 0.5e-9 * step):
                values = []
                for source in (hot_grid, grid):
                    builds.clear()
                    values.append(nm.eq_interaction_integral(lc, "hot", source, t))
                    assert len(builds) == 1
                assert values[0].hex() == values[1].hex()

    def test_interaction_energy_negative_on_reproduction_line(self, reference_context):
        for t_c in np.linspace(0.5, 120.0, 40):
            rep = evaluate_cycle(reference_context, 60.0, float(t_c))
            assert rep.dE_I_h < 0.0
            assert rep.dE_I_c < 0.0

    def test_markov_limit_agreement(self):
        # stronger coupling keeps 50/rate affordable
        lam = 0.05
        hot = nm.BathSpec(lam, CUTOFF, T_H)
        cold = nm.BathSpec(lam, CUTOFF, T_C)
        rate_h = nm.markov_rate(hot, OMEGA_H)
        rate_c = nm.markov_rate(cold, OMEGA_C)
        t_h, t_c = 50.0 / rate_h, 50.0 / rate_c
        gh = nm.stroke_tables(hot, OMEGA_H, t_h)
        gc = nm.stroke_tables(cold, OMEGA_C, t_c)
        lc = nm.fixed_point(t_h, t_c, gh, gc)
        markov = evaluate_cycle(markov_context_of(lambda_h=lam, lambda_c=lam), t_h, t_c)
        des_h = nm.stroke_energetics(lc, "hot", gh, t_h).dE_S
        des_c = nm.stroke_energetics(lc, "cold", gc, t_c).dE_S
        assert des_h == pytest.approx(markov.dE_S_h, rel=0.02)
        assert des_c == pytest.approx(markov.dE_S_c, rel=0.02)


class TestSimultaneousZeroCrossing:
    def test_qubit_heats_vanish_together(self, reference_context):
        ev = lambda tc: evaluate_cycle(reference_context, 60.0, float(tc))
        root_hot = nm.bisect_sign_change(lambda x: ev(x).dE_S_h, 2.0, 10.0, rtol=1e-8)
        root_cold = nm.bisect_sign_change(lambda x: ev(x).dE_S_c, 2.0, 10.0, rtol=1e-8)
        assert abs(root_hot - root_cold) <= 2.0 * 1e-8 * max(root_hot, 1.0)


class TestMarkovReference:
    def test_population_examples(self, hot_bath):
        assert markov_population(0.25, hot_bath, OMEGA_H, 0.0) == 0.25
        n = nm.bose_occupation(OMEGA_H, hot_bath.temperature)
        stationary = (1.0 + n) / (1.0 + 2.0 * n)
        assert markov_population(0.25, hot_bath, OMEGA_H, 1e7) == pytest.approx(stationary, abs=1e-12)
        frozen_cold = nm.BathSpec(LAMBDA, CUTOFF, 1e-4)
        assert markov_population(0.3, frozen_cold, OMEGA_H, 1e9) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("omega", [1e-308, 1e-310, 5e-324])
    def test_vanishing_frequency_takes_the_limits(self, hot_bath, omega):
        # 1 + 2n overflows (n itself is inf below ~5.6e-309 * T): the stationary
        # population is 1/2 and the rate 4 pi lam T exp(-omega/cutoff), the
        # values that omega = 1e-300 already approaches through n
        limit = 4.0 * math.pi * LAMBDA * T_H * math.exp(-omega / CUTOFF)
        assert nm.markov_rate(hot_bath, omega) == limit
        assert nm.markov_rate(hot_bath, 1e-300) == pytest.approx(limit, rel=1e-15)
        stroke = nm.MarkovStroke(hot_bath, omega)
        assert (stroke.stationary, stroke.rate) == (0.5, limit)
        assert markov_population(0.25, hot_bath, omega, 1e7 / limit) == 0.5
        assert markov_population(0.25, hot_bath, 1e-300, 1e7 / limit) == pytest.approx(0.5, abs=1e-15)

    def test_cycle_has_no_interaction_energy(self, markov_context):
        for t_h in (5.0, 40.0, 120.0):
            for t_c in (3.0, 66.0):
                rep = evaluate_cycle(markov_context, t_h, t_c)
                assert rep.dE_I_h == 0.0 and rep.dE_I_c == 0.0
                assert rep.W_detach_h == 0.0 and rep.W_detach_c == 0.0
                assert rep.dE_B_h == -rep.dE_S_h
                assert rep.dE_B_c == -rep.dE_S_c
                assert rep.mode is nm.Mode.ENGINE
                assert rep.alpha_h == 0.0 and rep.alpha_c == 0.0

    def test_engine_efficiency_is_frequency_ratio(self, markov_context):
        for t_h, t_c in ((10.0, 7.0), (80.0, 33.0)):
            rep = evaluate_cycle(markov_context, t_h, t_c)
            assert rep.eta == pytest.approx(1.0 - OMEGA_C / OMEGA_H, abs=1e-12)
            assert rep.W_total == pytest.approx(
                (OMEGA_H - OMEGA_C) * (rep.dE_S_h / OMEGA_H), rel=1e-10)


def test_a_stroke_label_is_hot_or_cold(hot_grid, cold_grid):
    lc = nm.fixed_point(60.0, 10.0, hot_grid, cold_grid)
    for energetics in (nm.stroke_energetics, nm.eq_interaction_integral):
        with pytest.raises(ValueError, match="^label must be 'hot' or 'cold', got 'warm'$"):
            energetics(lc, "warm", hot_grid, 60.0)


def test_the_explicit_integral_reads_only_at_a_node(hot_grid, cold_grid):
    lc = nm.fixed_point(60.0, 10.0, hot_grid, cold_grid)
    with pytest.raises(ValueError, match="^the explicit-integral route requires t on a grid node$"):
        nm.eq_interaction_integral(lc, "hot", hot_grid, 60.013)


# Each stroke time, and what both reads of a source do there: raise a
# ValueError with this text, or (None) read the value at t_max.  Only the
# table source has a t_max, its last node (130 on the hot fixture grid, step
# 0.05); a time up to 1e-9 steps past it is t_max rounded up.
@pytest.mark.parametrize("source, t, error", [
    *(pytest.param(source, t, r"^t must be finite and >= 0$", id=f"{source}-{name}")
      for source in ("tables", "markov")
      for name, t in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("negative", -1.0))),
    pytest.param("tables", 131.0, r"^t=131 exceeds grid t_max=130$", id="tables-past_t_max"),
    pytest.param("tables", 130.0 + 2e-9 * 0.05, r"^t=130 exceeds grid t_max=130$",
                 id="tables-2e-9_steps_past_t_max"),
    pytest.param("tables", 130.0 + 0.5e-9 * 0.05, None, id="tables-0.5e-9_steps_past_t_max"),
])
def test_stroke_sources_reject_the_same_times(source, t, error, hot_grid, hot_bath):
    stroke = hot_grid if source == "tables" else nm.MarkovStroke(hot_bath, OMEGA_H)
    for read in (stroke.populations, stroke.flow):
        if error is None:
            assert t > stroke.t_max
            assert read(t) == read(stroke.t_max)
        else:
            with pytest.raises(ValueError, match=error):
                read(t)
