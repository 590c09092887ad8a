"""Non-Markovian quantum Otto cycle simulator.

A spin-boson qubit alternates isochoric strokes with two Ohmic baths and
adiabatic frequency quenches.  The package computes the time-local
second-order population dynamics, the limit cycle of the repeated protocol,
per-stroke energy bookkeeping including the interaction energy, the works in
closed form, and classifies the cycle's operating mode (engine, heater, heat
pump).
"""

from .config import RunConfig, SweepRange, TimeBox, load_config, parse_config
from .cycle import (
    CycleReport,
    Flow,
    Mode,
    StrokeEnergetics,
    assemble_report,
    bisect_sign_change,
    classify_flow,
    classify_mode,
    find_boundaries,
)
from .dynamics import transition_populations, transition_traces
from .energetics import (
    MarkovStroke,
    StrokeTables,
    eq_interaction_integral,
    markov_rate,
    stroke_energetics,
)
from .errors import (
    ConfigError,
    GridError,
    NmottoError,
    PoleError,
    PositivityError,
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
from .special import cumulative_simpson, simpson, trigamma_values
from .sweep import (
    CSV_HEADER,
    CycleContext,
    build_context,
    evaluate_cycle,
    run_cycle,
    run_phase,
    run_sweep,
    stroke_tables,
)

__version__ = "0.1.0"
