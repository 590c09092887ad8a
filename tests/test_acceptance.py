"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

import nmotto as nm
from nmotto.config import parse_config
from nmotto.cycle import Flow, Mode
from nmotto.sweep import evaluate_cycle, run_sweep
from nmotto.work_extraction import DIM, _index

from conftest import (CUTOFF, LAMBDA, OMEGA_C, OMEGA_H, T_C, T_H,
                      base_config_dict, trigamma_series_oracle)


def _report(number, name, elapsed):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f} s)")


def test_criterion_01_kernel_oracle_equivalence():
    start = time.perf_counter()
    taus = np.linspace(0.0, 100.0, 50)
    temperatures = (0.2, 0.5, 1.0)
    for temp in temperatures:
        bath = nm.BathSpec("hot", LAMBDA, CUTOFF, temp)

        def noise_integrand(tau):
            def f(w):
                w = np.asarray(w)
                out = np.full(w.shape, 4.0 * LAMBDA * temp)
                nz = w > 0.0
                out[nz] = 2.0 * LAMBDA * w[nz] * np.exp(-w[nz] / CUTOFF) \
                    / np.tanh(w[nz] / (2.0 * temp)) * np.cos(w[nz] * tau)
                return out
            return f

        def dissipation_integrand(tau):
            return lambda w: 2.0 * LAMBDA * w * np.exp(-w / CUTOFF) * np.sin(w * tau)

        for tau in taus:
            tau = float(tau)
            closed = nm.noise_kernel(tau, bath)
            oracle = nm.integrate_semi_infinite(
                noise_integrand(tau), CUTOFF, tol=max(1e-12, 2e-7 * abs(closed)))
            assert abs(oracle - closed) < 1e-6 * abs(closed)
            closed2 = nm.dissipation_kernel(tau, bath)
            oracle2 = nm.integrate_semi_infinite(
                dissipation_integrand(tau), CUTOFF, tol=max(1e-12, 2e-7 * abs(closed2)))
            if closed2 == 0.0:
                assert oracle2 == 0.0
            else:
                assert abs(oracle2 - closed2) < 1e-6 * abs(closed2)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, "kernel closed forms match defining integrals", elapsed)


def test_criterion_02_trigamma_correctness():
    start = time.perf_counter()
    assert abs(nm.trigamma(1.0).real - math.pi ** 2 / 6.0) < 1e-12 * (math.pi ** 2 / 6.0)
    assert abs(nm.trigamma(0.5).real - math.pi ** 2 / 2.0) < 1e-12 * (math.pi ** 2 / 2.0)
    rng = np.random.default_rng(2024)
    z = rng.uniform(0.1, 10.0, 1000) + 1j * rng.uniform(-10.0, 10.0, 1000)
    residual = np.abs(nm.trigamma_values(z) - nm.trigamma_values(z + 1.0) - 1.0 / z ** 2)
    assert residual.max() < 1e-11
    _report(2, "trigamma identities and recurrence", time.perf_counter() - start)


def test_criterion_03_tcl2_long_time_thermalization():
    start = time.perf_counter()
    cases = [
        (1.0, 1.0, 0.01), (0.5, 0.2, 0.01), (0.8, 0.5, 0.02),
        (1.5, 2.0, 0.01), (0.4, 1.0, 0.02),
    ]
    for omega0, temp, lam in cases:
        bath = nm.BathSpec("hot", lam, CUTOFF, temp)
        rate = nm.markov_rate(bath, omega0)
        grid = nm.build_kernel_grid(bath, omega0, 9.0 / rate)
        n = nm.bose_occupation(omega0, temp)
        stationary = (1.0 + n) / (1.0 + 2.0 * n)
        final = nm.propagate(1.0, grid, grid.t_max).value_at_t
        assert abs(final - stationary) < 1e-3
        # late-time relaxation rate: two traces converge as exp(-rate * t)
        from_ground, from_excited = nm.transition_traces(grid)
        gap = from_ground - from_excited
        i1 = int(2.0 / rate / grid.step)
        i2 = int(4.0 / rate / grid.step)
        estimated = -(math.log(gap[i2]) - math.log(gap[i1])) / (grid.tau[i2] - grid.tau[i1])
        assert abs(estimated - rate) < 0.02 * rate
    _report(3, "long-time thermalization and decay rate", time.perf_counter() - start)


def test_criterion_04_limit_cycle_oracle(hot_grid, cold_grid):
    start = time.perf_counter()
    for t_h in np.linspace(2.0, 120.0, 10):
        for t_c in np.linspace(2.0, 120.0, 10):
            t_h, t_c = float(t_h), float(t_c)
            lc = nm.fixed_point(t_h, t_c, hot_grid, cold_grid)
            finals = [nm.iterate_map(seed, 10_000, t_h, t_c, hot_grid, cold_grid)
                      for seed in (0.0, 0.5, 1.0)]
            for value in finals:
                assert abs(lc.P_h - value) < 1e-10
            assert max(finals) - min(finals) < 1e-12
    _report(4, "closed-form limit cycle matches power iteration", time.perf_counter() - start)


def test_criterion_05_energy_conservation(hot_bath, cold_bath):
    start = time.perf_counter()
    gh = nm.build_kernel_grid(hot_bath, OMEGA_H, 40.0, 0.025)
    gc = nm.build_kernel_grid(cold_bath, OMEGA_C, 40.0, 0.025)
    rng = np.random.default_rng(55)
    for _ in range(20):
        t_h = gh.step * int(rng.integers(40, gh.n_points - 1))
        t_c = gc.step * int(rng.integers(40, gc.n_points - 1))
        lc = nm.fixed_point(t_h, t_c, gh, gc)
        for label, omega, grid, t in (("hot", OMEGA_H, gh, t_h), ("cold", OMEGA_C, gc, t_c)):
            stroke = nm.stroke_energetics(lc, label, omega, grid, t)
            assert abs(stroke.dE_S + stroke.dE_B + stroke.dE_I) < 1e-14
            explicit = nm.eq_interaction_integral(lc, label, grid, t)
            assert abs(stroke.dE_I - explicit) < 1e-10
    _report(5, "energy conservation and explicit-integral route", time.perf_counter() - start)


def test_criterion_06_work_extraction_verifiers():
    start = time.perf_counter()
    hamiltonian = nm.build_hamiltonian(1.0, 0.5)
    unitary = nm.build_unitary()
    report = nm.verify_conservation(hamiltonian, unitary)
    assert report.commutator_max < 1e-13
    assert report.level1_max_residual < 1e-12
    assert report.level4_max_residual == 0.0
    assert report.satisfied
    rng = np.random.default_rng(6)
    for _ in range(100):
        omega_c = float(rng.uniform(0.1, 2.0))
        omega_h = omega_c + float(rng.uniform(0.05, 2.0))
        rho11 = float(rng.uniform(0.0, 1.0))
        h = nm.build_hamiltonian(omega_h, omega_c)
        outcome = nm.measure_storage(nm.apply_extraction(rho11, 1.0 - rho11, h), h)
        assert abs(outcome.expected_work - rho11 * (omega_h - omega_c)) < 1e-13
    _report(6, "work-extraction conservation verifiers", time.perf_counter() - start)


def test_criterion_07_markovian_reference(hot_bath, cold_bath):
    start = time.perf_counter()
    for t_h in np.linspace(3.0, 120.0, 20):
        for t_c in np.linspace(3.0, 120.0, 20):
            rep = nm.markov_cycle(float(t_h), float(t_c), hot_bath, cold_bath, OMEGA_H, OMEGA_C)
            assert rep.dE_I_h == 0.0 and rep.dE_I_c == 0.0
            assert rep.mode is Mode.ENGINE
            assert abs(rep.eta - (1.0 - OMEGA_C / OMEGA_H)) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(7, "Markovian reference is an engine everywhere", elapsed)


def test_criterion_08_mode_switching_structure(reference_context):
    start = time.perf_counter()
    ctx = reference_context
    evaluate = lambda tc: evaluate_cycle(ctx, 60.0, float(tc))
    rtol = 1e-6

    reports = {float(tc): evaluate(float(tc)) for tc in np.linspace(0.5, 120.0, 240)}

    # interaction energy negative at every sampled point, both strokes
    for rep in reports.values():
        assert rep.dE_I_h < 0.0
        assert rep.dE_I_c < 0.0

    # alpha_c >= 1 exactly on the cold-bath energy-division subregion
    for rep in reports.values():
        if abs(rep.dE_S_c) > 1e-12 and abs(rep.dE_B_c) > 1e-12:
            assert (rep.alpha_c >= 1.0) == (rep.flow_c is Flow.ENERGY_DIVISION)

    # boundary times and mode sequence
    t0, t1 = nm.find_boundaries(evaluate, 0.5, 120.0, 0.5, rtol=rtol)
    assert t0 is not None and t1 is not None
    assert 0.0 < t0 < t1
    root_hot = nm.bisect_sign_change(lambda x: evaluate(x).dE_S_h, t0 - 1.0, t0 + 1.0, rtol)
    root_cold = nm.bisect_sign_change(lambda x: evaluate(x).dE_S_c, t0 - 1.0, t0 + 1.0, rtol)
    assert abs(root_hot - root_cold) <= 2.0 * rtol * max(abs(root_hot), 1.0)

    modes = [rep.mode for tc, rep in sorted(reports.items())]
    collapsed = [modes[0]]
    for mode in modes[1:]:
        if mode is not collapsed[-1]:
            collapsed.append(mode)
    assert collapsed == [Mode.HEAT_PUMP, Mode.HEATER, Mode.ENGINE]
    for tc, rep in reports.items():
        if tc < t0 - 0.5:
            assert rep.mode is Mode.HEAT_PUMP
        elif t0 + 0.5 < tc < t1 - 0.5:
            assert rep.mode is Mode.HEATER
        elif tc > t1 + 0.5:
            assert rep.mode is Mode.ENGINE

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(8, "heat pump / heater / engine switching structure", elapsed)


def test_criterion_09_determinism_and_parallel_safety(tmp_path):
    start = time.perf_counter()
    cfg50 = parse_config(base_config_dict(
        t_h={"min": 1.0, "max": 120.0, "n": 50},
        t_c={"min": 1.0, "max": 120.0, "n": 50},
    ))
    one, eight = tmp_path / "w1.csv", tmp_path / "w8.csv"
    run_sweep(cfg50, str(one), workers=1)
    run_sweep(cfg50, str(eight), workers=8)
    assert one.read_bytes() == eight.read_bytes()

    cfg100 = parse_config(base_config_dict(
        t_h={"min": 1.0, "max": 120.0, "n": 100},
        t_c={"min": 1.0, "max": 120.0, "n": 100},
        workers=4,
    ))
    t_sweep = time.perf_counter()
    run_sweep(cfg100, str(tmp_path / "big.csv"))
    sweep_elapsed = time.perf_counter() - t_sweep
    assert sweep_elapsed < 60.0
    _report(9, "byte-identical parallel sweeps within budget", time.perf_counter() - start)
