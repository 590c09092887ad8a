import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad

import nmotto as nm
from oracles import markov_population

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
DATA = REPO / "tests" / "data"
SRC = REPO / "src"

# The output headers, written out so that a test pins the schema rather than
# reading it from the code under test.
SWEEP_HEADER = ("t_h,t_c,dE_S_h,dE_B_h,dE_I_h,dE_S_c,dE_B_c,dE_I_c,"
                "W_adiab_h,W_adiab_c,W_detach_h,W_detach_c,W_total,"
                "alpha_h,alpha_c,eta,cop,mode,flow_h,flow_c,error")
PHASE_HEADER = "omega_ratio,T_ratio,engine,heater,heat_pump,other,classification,error"
KERNELS_HEADER = "tau,D1,D2,a,b,A"
STROKE_HEADER = "tau,rho00"

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


@pytest.fixture()
def noise_builds(monkeypatch):
    """The bath of every `noise_kernel` call of a grid build (one per cache block)."""
    baths, noise_kernel = [], nm.kernels.noise_kernel

    def counted(tau, bath, buffers=None):
        baths.append(bath)
        return noise_kernel(tau, bath, buffers)

    monkeypatch.setattr(nm.kernels, "noise_kernel", counted)
    return baths


def read_rows(path):
    """The rows of a CSV output file as lists of fields, its header first."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_records(path):
    """The rows of a CSV output file after its header, as {column name: field}."""
    header, *rows = read_rows(path)
    return [dict(zip(header, row)) for row in rows]


def dump_columns(path):
    """A `kernels` or `stroke` dump as {column name: array}.  Its "%.17g" text
    parses back to the same floats, signs of zeros included."""
    header, *rows = read_rows(path)
    return dict(zip(header, np.array([[float(x) for x in row] for row in rows]).T))


def kernel_dump(**keys):
    """The hot `kernels` dump of the reference config, keys overridden, as
    {column name: array}.  The dump is the only producer of the rate a."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "kernels.csv"
        nm.sweep.write_kernel_csv(nm.parse_config(base_config_dict(**keys)), str(path), "hot")
        return dump_columns(path)


def write_config(path, data):
    """`data` as the JSON config file `path`, which is returned."""
    path.write_text(json.dumps(data))
    return path


def readme_cli_lines():
    """The `nmotto ...` lines of the README's CLI block."""
    return [line for line in (REPO / "README.md").read_text().splitlines()
            if line.startswith("nmotto ")]


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


def phase_config_dict(**overrides):
    """One phase cell of the reference baths (omega ratio 0.5, T ratio 0.2) over a
    small t_box, keys overridden.  A phase config has no cold keys or stroke
    times, as configs/phase_small.json: each cell derives omega_c and T_c."""
    data = {key: value for key, value in base_config_dict().items()
            if key not in ("omega_c", "T_c", "t_h", "t_c")}
    data.update(omega_ratio={"min": 0.5, "max": 0.5, "n": 1}, T_ratio={"min": 0.2, "max": 0.2, "n": 1},
                t_box={"t_max": 10.0, "n": 2})
    data.update(overrides)
    return data
