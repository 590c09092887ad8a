"""Properties of the cycle over random weak-coupling baths on ~1000-node grids."""

from hypothesis import given, settings
from hypothesis import strategies as st

import nmotto as nm

STEP = 0.05
NODES = 1000

couplings = st.floats(1e-3, 0.05)
cutoffs = st.floats(0.2, 2.0)
temperatures = st.floats(0.1, 2.0)
frequencies = st.floats(0.3, 1.5)
node_counts = st.integers(20, NODES)  # a stroke time is a node: k * STEP


def _grid(label, coupling, cutoff, temperature, omega):
    return nm.build_kernel_grid(nm.BathSpec(label, coupling, cutoff, temperature),
                                omega, NODES * STEP, STEP)


@settings(max_examples=50, deadline=None)
@given(couplings, cutoffs, temperatures, frequencies, node_counts,
       couplings, cutoffs, temperatures, frequencies, node_counts)
def test_limit_cycle_and_stroke_records(lam_h, cut_h, temp_h, omega_h, k_h,
                                        lam_c, cut_c, temp_c, omega_c, k_c):
    hot = _grid("hot", lam_h, cut_h, temp_h, omega_h)
    cold = _grid("cold", lam_c, cut_c, temp_c, omega_c)
    t_h, t_c = k_h * STEP, k_c * STEP
    lc = nm.fixed_point(t_h, t_c, hot, cold)
    for p in (lc.P_h, lc.P_c, lc.rho00_h, lc.rho11_h, lc.rho00_c, lc.rho11_c):
        assert 0.0 <= p <= 1.0
    # one cycle of the raw map leaves the closed-form fixed point in place
    assert abs(nm.iterate_map(lc.P_h, 1, t_h, t_c, hot, cold) - lc.P_h) < 1e-12

    ctx = nm.CycleContext(omega_h=omega_h, omega_c=omega_c,
                          hot_bath=hot.bath, cold_bath=cold.bath,
                          hot_grid=hot, cold_grid=cold, dynamics="tcl2", sign_eps=1e-12)
    rep = nm.evaluate_cycle(ctx, t_h, t_c)
    for label, grid, t in (("hot", hot, t_h), ("cold", cold, t_c)):
        s = nm.stroke_energetics(lc, label, grid, t)
        assert s.dE_I == -s.dE_S - s.dE_B
        # the prefix tables agree with the explicit integral on a node
        assert abs(s.dE_I - nm.eq_interaction_integral(lc, label, grid, t)) <= 1e-12
        fields = tuple(getattr(rep, f"dE_{x}_{label[0]}") for x in "SBI")
        assert fields == (s.dE_S, s.dE_B, s.dE_I)
