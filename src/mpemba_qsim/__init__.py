"""Exactly solvable open-system relaxation models with Mpemba-crossing detection.

Three models with closed-form reduced dynamics driven by a coupling-phase
schedule: an oscillator relaxing into a partner mode, a qubit exchanging with
a thermal partner qubit, and a resonant qubit-boson model.  Every closed form
is cross-validated against brute-force truncated-space evolution (:mod:`.oracle`),
and distance trajectories feed a crossing detector that classifies anomalous
(Mpemba-style) relaxation.
"""

__version__ = "0.1.0"

from .crossings import (
    CrossingPair,
    CrossingReport,
    DistanceSeries,
    alpha_window_scan,
    detect_crossings,
    pairwise_crossings,
)
from .metrics import hs_distance, trace_distance
from .oscillator import (
    Coherent,
    Fock,
    Thermal,
    evolve_closed_form,
    hs_distance_closed,
    trace_distance_closed,
)
from .schedules import (
    CavityMode,
    ExpDecay,
    Ramp,
    SinExpDecay,
    time_grid,
)
from .states import BathThermal, BlochVector, ZERO_TEMPERATURE

__all__ = [
    "__version__",
    "BathThermal",
    "BlochVector",
    "CavityMode",
    "Coherent",
    "CrossingPair",
    "CrossingReport",
    "DistanceSeries",
    "ExpDecay",
    "Fock",
    "Ramp",
    "SinExpDecay",
    "Thermal",
    "ZERO_TEMPERATURE",
    "alpha_window_scan",
    "detect_crossings",
    "evolve_closed_form",
    "hs_distance",
    "hs_distance_closed",
    "pairwise_crossings",
    "time_grid",
    "trace_distance",
    "trace_distance_closed",
]
