"""The reference cycle at short interaction times, against closed forms.

For t << 1/Omega a TCL2 stroke heats its bath by
dE_B = integral_0^t D2(tau) cos(omega0 tau) dtau + O(t^4) = 2 lambda Omega^3 t^2 + O(t^4),
whatever the bath temperature, the qubit frequency or the state the stroke
starts from.  The qubit moves toward rho11 = 1/2 by O(t^2) of its distance, so
dE_S = O(t^4), dE_I = -dE_S - dE_B < 0, and over the limit cycle
W_total = -(dE_B_h + dE_B_c) < 0: no short cycle is an Engine.  This O(t^2)
bath heating, which does not depend on the state, is what separates TCL2 from
the Markov reference at short times: a Markov stroke has dE_I = 0 and
dE_B = -dE_S, so its bath only takes what the qubit gives, and the same short
cycles are Engines.  Because the hot bath gains there, a hot stroke whose
qubit loses energy sends it, with the interaction energy, to the hot bath
(ReverseEnergyFlow), and alpha_h = |dE_I_h / dE_S_c| grows as t^-2.

The cells sit at even nodes of h = 0.0125 (t_h = t_c = t), where the
cumulative Simpson rule is exact for cubics.  Measured there,
(dE_B / (2 lambda Omega^3 t^2) - 1) / t^2 is -0.241...-0.243 (hot) and
-0.180...-0.181 (cold), inside the 0.3 the tests allow.
"""

import sys

import pytest

import nmotto as nm
from nmotto.config import parse_config
from nmotto.cycle import SIGN_EPS, Flow, Mode

from conftest import CUTOFF, LAMBDA, base_config_dict

STEP = 0.0125
SHORT_TIMES = [0.1, 0.125, 0.15, 0.175, 0.2]  # nodes 8, 10, ..., 16


def _context(dynamics):
    return nm.build_context(parse_config(base_config_dict(h=STEP, dynamics=dynamics)),
                            max(SHORT_TIMES), max(SHORT_TIMES))


def _reports(ctx):
    return [nm.evaluate_cycle(ctx, t, t) for t in SHORT_TIMES]


@pytest.fixture(scope="module")
def tcl2_context():
    return _context("tcl2")


@pytest.fixture(scope="module")
def tcl2_reports(tcl2_context):
    return _reports(tcl2_context)


def test_each_bath_gains_the_state_independent_t_squared_heat(tcl2_reports):
    for t, report in zip(SHORT_TIMES, tcl2_reports):
        leading = 2.0 * LAMBDA * CUTOFF ** 3 * t ** 2
        for gained in (report.dE_B_h, report.dE_B_c):
            assert abs(gained / leading - 1.0) <= 0.3 * t ** 2


def test_the_cycle_work_is_minus_the_baths_heat(tcl2_reports):
    # W_total sums the two adiabatic works (~0.25 each, cancelling) and the two
    # dE_I; the identity holds to the rounding of those sums.
    for report in tcl2_reports:
        rounding = 4 * sys.float_info.epsilon * (abs(report.W_adiab_h) + abs(report.W_adiab_c))
        assert abs(report.W_total + report.dE_B_h + report.dE_B_c) <= rounding
        assert report.W_total < -SIGN_EPS


def test_no_short_cycle_is_an_engine(tcl2_reports):
    assert all(report.mode is not Mode.ENGINE for report in tcl2_reports)


def test_the_hot_stroke_divides_the_interaction_energy(tcl2_reports):
    # dE_B_h > 0 at short times, so a qubit that gains energy shares the
    # interaction energy with the bath.
    for report in tcl2_reports:
        assert report.dE_B_h > SIGN_EPS
        if report.dE_S_h > SIGN_EPS:
            assert report.flow_h is Flow.ENERGY_DIVISION


@pytest.mark.parametrize("t_h", [0.15, 0.2])
def test_a_qubit_that_loses_energy_sends_it_to_the_hot_bath(tcl2_context, t_h):
    # After a cold stroke of 0.1 the hot stroke's qubit loses energy (dE_S_h
    # -2.70e-9 at t_h 0.15 and -1.28e-8 at 0.2, measured) while the bath
    # gains (dE_B_h 2.86e-5 and 5.07e-5): energy flows from the system and
    # the interaction energy to the hot bath, and the cycle pumps heat.
    report = nm.evaluate_cycle(tcl2_context, t_h, 0.1)
    assert report.dE_S_h < -SIGN_EPS and report.dE_B_h > SIGN_EPS
    assert report.flow_h is Flow.REVERSE
    assert report.mode is Mode.HEAT_PUMP


def test_the_hot_non_markovianity_grows_as_t_to_the_minus_two(tcl2_reports):
    # alpha_h = |dE_I_h / dE_S_c| with dE_I_h ~ -dE_B_h = O(t^2) and dE_S_c =
    # O(t^4).  The constant alpha_h t^2 is measured, not derived: 72.08,
    # 72.05, 72.01, 71.97 and 71.91 over SHORT_TIMES.
    scaled = [report.alpha_h * t ** 2 for t, report in zip(SHORT_TIMES, tcl2_reports)]
    assert max(scaled) - min(scaled) <= 0.01 * min(scaled)


def test_the_markov_reference_has_no_bath_heating_of_its_own():
    for report in _reports(_context("markov")):
        assert report.dE_I_h == report.dE_I_c == 0.0
        assert report.dE_B_h == -report.dE_S_h and report.dE_B_c == -report.dE_S_c
        assert report.mode is Mode.ENGINE
