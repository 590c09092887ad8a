import numpy as np
import pytest

import nmotto as nm
from nmotto.errors import SingularMapError

from conftest import CUTOFF, OMEGA_H, T_H


class TestFixedPoint:
    def test_identical_strokes_give_symmetric_cycle(self, hot_bath):
        grid = nm.stroke_tables(hot_bath, OMEGA_H, 40.0)
        lc = nm.fixed_point(25.0, 25.0, grid, grid)
        assert lc.P_h == pytest.approx(lc.P_c, abs=1e-14)
        # equal frequencies: the adiabats move no energy
        idle = nm.StrokeEnergetics(0.0, 0.0, 0.0)
        rep = nm.assemble_report(25.0, 25.0, lc, OMEGA_H, OMEGA_H, idle, idle)
        assert rep.W_adiab_h + rep.W_adiab_c == pytest.approx(0.0, abs=1e-16)

    def test_matches_power_iteration(self, hot_grid, cold_grid):
        for t_h, t_c in ((5.0, 3.0), (60.0, 10.0), (110.0, 95.0)):
            lc = nm.fixed_point(t_h, t_c, hot_grid, cold_grid)
            iterated = nm.iterate_map(0.5, 10_000, t_h, t_c, hot_grid, cold_grid)
            assert abs(lc.P_h - iterated) < 1e-12

    def test_long_strokes_thermalize(self, hot_bath, cold_bath):
        rate_h = nm.markov_rate(hot_bath, OMEGA_H)
        rate_c = nm.markov_rate(cold_bath, 0.5)
        t_h, t_c = 9.0 / rate_h, 9.0 / rate_c
        gh = nm.stroke_tables(hot_bath, OMEGA_H, t_h)
        gc = nm.stroke_tables(cold_bath, 0.5, t_c)
        lc = nm.fixed_point(t_h, t_c, gh, gc)
        n_h = nm.bose_occupation(OMEGA_H, hot_bath.temperature)
        n_c = nm.bose_occupation(0.5, cold_bath.temperature)
        assert lc.rho00_h == pytest.approx((1.0 + n_h) / (1.0 + 2.0 * n_h), abs=1e-3)
        assert lc.rho00_c == pytest.approx((1.0 + n_c) / (1.0 + 2.0 * n_c), abs=1e-3)

    def test_population_bookkeeping_closes(self, hot_grid, cold_grid):
        lc = nm.fixed_point(60.0, 10.0, hot_grid, cold_grid)
        assert lc.rho00_h + lc.rho11_h == 1.0
        assert lc.rho00_c + lc.rho11_c == 1.0
        # state entering the hot stroke is the state leaving the cold one
        r0_c, r1_c = nm.transition_populations(cold_grid, 10.0)
        entering_hot = lc.P_c * r0_c + (1.0 - lc.P_c) * r1_c
        assert abs(lc.P_h - entering_hot) < 1e-10
        assert lc.rho00_c == pytest.approx(lc.P_h, abs=1e-14)
        assert lc.rho00_h == pytest.approx(lc.P_c, abs=1e-14)

    def test_probabilities_in_range_over_grid(self, reference_context):
        for t_h in np.linspace(2.0, 120.0, 10):
            for t_c in np.linspace(2.0, 120.0, 10):
                lc = nm.fixed_point(float(t_h), float(t_c),
                                    reference_context.hot_grid, reference_context.cold_grid)
                for p in (lc.P_h, lc.P_c, lc.rho00_h, lc.rho00_c):
                    assert -1e-9 <= p <= 1.0 + 1e-9

    def test_zero_duration_rejected(self, hot_grid, cold_grid):
        with pytest.raises(ValueError):
            nm.fixed_point(0.0, 10.0, hot_grid, cold_grid)
        with pytest.raises(ValueError):
            nm.fixed_point(10.0, 0.0, hot_grid, cold_grid)

    def test_singular_map_raises(self):
        # decoupled baths leave the populations untouched: p0 = 1
        grid = nm.stroke_tables(nm.BathSpec(0.0, CUTOFF, T_H), OMEGA_H, 10.0)
        with pytest.raises(SingularMapError):
            nm.fixed_point(5.0, 5.0, grid, grid)


class TestIterateMap:
    def test_zero_iterations_returns_seed(self, hot_grid, cold_grid):
        assert nm.iterate_map(0.33, 0, 60.0, 10.0, hot_grid, cold_grid) == 0.33

    def test_negative_count_rejected(self, hot_grid, cold_grid):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            nm.iterate_map(0.33, -1, 60.0, 10.0, hot_grid, cold_grid)

    def test_contraction_is_monotone(self, hot_grid, cold_grid):
        values = [nm.iterate_map(0.0, n, 60.0, 10.0, hot_grid, cold_grid) for n in range(12)]
        steps = np.abs(np.diff(values))
        assert np.all(steps[1:] <= steps[:-1] + 1e-16)

    def test_convergence_independent_of_seed(self, hot_grid, cold_grid):
        finals = [nm.iterate_map(seed, 10_000, 60.0, 10.0, hot_grid, cold_grid)
                  for seed in (0.0, 0.5, 1.0)]
        assert max(finals) - min(finals) < 1e-12
