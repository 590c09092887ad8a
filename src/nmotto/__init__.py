"""Non-Markovian quantum Otto cycle simulator.

A spin-boson qubit alternates isochoric strokes with two Ohmic baths and
measurement-based work extraction strokes.  The package computes the
time-local second-order population dynamics, the limit cycle of the repeated
protocol, per-stroke energy bookkeeping including the interaction energy,
and classifies the cycle's operating mode (engine, heater, heat pump).
"""

from .config import RunConfig, SweepRange, TimeBox, Tolerances, load_config, parse_config
from .cycle import (
    CycleReport,
    Flow,
    Mode,
    assemble_report,
    bisect_sign_change,
    classify_flow,
    classify_mode,
    find_boundaries,
    nonmarkov_index,
    performance,
    works,
)
from .dynamics import PopulationTrace, propagate, transition_populations, transition_traces
from .energetics import (
    StrokeEnergetics,
    bath_energy_change,
    eq_interaction_integral,
    interaction_energy_change,
    markov_cycle,
    markov_population,
    markov_rate,
    qubit_energy_change,
    stroke_energetics,
)
from .errors import (
    ConfigError,
    GridError,
    NmottoError,
    PoleError,
    PositivityError,
    QuadratureError,
    SingularMapError,
)
from .kernels import (
    BathSpec,
    KernelGrid,
    bose_occupation,
    build_kernel_grid,
    default_grid_step,
    dissipation_kernel,
    noise_kernel,
    spectral_density,
)
from .limit_cycle import LimitCycleState, fixed_point, fixed_point_from_populations, iterate_map
from .special import (
    cumulative_simpson,
    integrate_finite,
    integrate_semi_infinite,
    simpson,
    trigamma,
    trigamma_values,
)
from .sweep import (
    CSV_HEADER,
    CycleContext,
    build_context,
    evaluate_cycle,
    run_cycle,
    run_phase,
    run_sweep,
)
from .work_extraction import (
    COMPRESSION,
    EXPANSION,
    ConservationReport,
    TripartiteHamiltonian,
    TripartiteState,
    WorkOutcome,
    apply_extraction,
    build_hamiltonian,
    build_unitary,
    measure_storage,
    verify_conservation,
)

__version__ = "0.1.0"
