import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad

import nmotto as nm
from oracles import markov_population

# Reference scale: ratios omega_c/omega_h = 0.5, T_c/T_h = 0.2 anchored at
# omega_h = T_h = 1 (see configs/reference_cycle.json).
OMEGA_H = 1.0
OMEGA_C = 0.5
T_H = 1.0
T_C = 0.2
LAMBDA = 0.01
CUTOFF = 0.4
T_HOT_STROKE = 60.0

# Every property test draws the same examples on every run: a failure is the
# program's, reproducible, and not a draw that the next run may miss.  A test
# sets only its max_examples.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def hot_bath():
    return nm.BathSpec(LAMBDA, CUTOFF, T_H)


@pytest.fixture(scope="session")
def cold_bath():
    return nm.BathSpec(LAMBDA, CUTOFF, T_C)


@pytest.fixture(scope="session")
def hot_grid(hot_bath):
    return nm.stroke_tables(hot_bath, OMEGA_H, 130.0)


@pytest.fixture(scope="session")
def cold_grid(cold_bath):
    return nm.stroke_tables(cold_bath, OMEGA_C, 130.0)


@pytest.fixture(scope="session")
def hot_kernels(hot_bath):
    """The kernel grid of the `hot_grid` stroke's inputs: the stroke keeps none of its tables."""
    return nm.build_kernel_grid(hot_bath, OMEGA_H, 130.0)


def kernel_dump(**keys):
    """The hot `kernels` dump of the reference config, keys overridden, as
    {column name: array}.  The dump is the only producer of the rate a, and
    its "%.17g" text parses back to the same floats, signs of zeros included."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "kernels.csv"
        nm.sweep.write_kernel_csv(nm.parse_config(base_config_dict(**keys)), str(path), "hot")
        lines = path.read_text().splitlines()
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return dict(zip(lines[0].split(","), rows.T))


@pytest.fixture(scope="session")
def reference_context(hot_grid, cold_grid):
    return nm.CycleContext(omega_h=OMEGA_H, omega_c=OMEGA_C,
                           hot_grid=hot_grid, cold_grid=cold_grid)


def markov_context_of(**overrides):
    """The reference config's context under Markov dynamics, keys overridden."""
    config = nm.parse_config(base_config_dict(dynamics="markov", **overrides))
    return nm.build_context(config, config.t_h, config.t_c)


@pytest.fixture(scope="session")
def markov_context():
    return markov_context_of()


def markov_reference_cycle(t_h, t_c, hot_bath, cold_bath, omega_h, omega_c):
    """The Markovian reference cycle written out on its own: four closed-form
    populations, the closed-form fixed point, then dE_B = -dE_S and dE_I = 0."""
    r0_h = markov_population(1.0, hot_bath, omega_h, t_h)
    r1_h = markov_population(0.0, hot_bath, omega_h, t_h)
    r0_c = markov_population(1.0, cold_bath, omega_c, t_c)
    r1_c = markov_population(0.0, cold_bath, omega_c, t_c)
    lc = nm.fixed_point_from_populations(r0_h, r1_h, r0_c, r1_c)
    des_h = omega_h * (lc.rho11_h - (1.0 - lc.P_h))
    des_c = omega_c * (lc.rho11_c - (1.0 - lc.P_c))
    return nm.assemble_report(t_h, t_c, lc, omega_h, omega_c,
                              nm.StrokeEnergetics(des_h, -des_h, 0.0),
                              nm.StrokeEnergetics(des_c, -des_c, 0.0))


def trigamma_series_oracle(z, terms=10**6):
    """Direct summation of sum 1/(z+k)^2 with an Euler-Maclaurin tail."""
    k = np.arange(terms)
    total = np.sum(1.0 / (z + k) ** 2)
    w = z + terms
    return total + 1.0 / w + 1.0 / (2.0 * w * w) + 1.0 / (6.0 * w ** 3)


def noise_kernel_oracle(bath, tau):
    """D1(tau) = int_0^inf 2 J(w) coth(w/2T) cos(w tau) dw by QUADPACK's QAWF."""
    lam, cut, temp = bath.coupling, bath.cutoff, bath.temperature

    def g(w):
        if w == 0.0:  # w -> 0 limit of 2 J(w) coth(w/2T)
            return 4.0 * lam * temp
        return 2.0 * lam * w * math.exp(-w / cut) / math.tanh(w / (2.0 * temp))

    return quad(g, 0.0, math.inf, weight="cos", wvar=tau, epsabs=1e-14)[0]


def dissipation_kernel_oracle(bath, tau):
    """D2(tau) = int_0^inf 2 J(w) sin(w tau) dw by QUADPACK's QAWF."""
    lam, cut = bath.coupling, bath.cutoff
    return quad(lambda w: 2.0 * lam * w * math.exp(-w / cut), 0.0, math.inf,
                weight="sin", wvar=tau, epsabs=1e-14)[0]


def base_config_dict(**overrides):
    data = {
        "omega_h": OMEGA_H, "omega_c": OMEGA_C, "T_h": T_H, "T_c": T_C,
        "lambda_h": LAMBDA, "lambda_c": LAMBDA, "Omega_h": CUTOFF, "Omega_c": CUTOFF,
        "t_h": T_HOT_STROKE, "t_c": 10.0,
    }
    data.update(overrides)
    return data
