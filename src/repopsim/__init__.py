"""Deterministic simulator of a three-fraction cell population under pulsed
weekly therapy: survival-scaled radiation pulses composed with replicator
growth and mutation, logged as day-by-day trajectory tables."""

from .analysis import (
    DiffPoint,
    GoldenRow,
    SweepEntry,
    TrajectoryDiff,
    compare_to_golden,
    diff_velocity,
    lq_closed_form,
    sweep,
)
from .config import RunConfig, load_config, parse_config
from .core import (
    INITIAL,
    PHASES,
    POST_GROWTH,
    POST_RADIATION,
    AlignmentError,
    ConfigError,
    InvalidParameterError,
    InvalidStateError,
    ModelParams,
    NumericInstabilityError,
    PopulationState,
    SchemaError,
    SimulationError,
    survival_fraction,
)
from .growth import integrate_growth
from .io import (
    load_reference_table,
    read_trajectory,
    write_diff,
    write_sweep_summary,
    write_trajectory,
)
from .radiation import RadiationOperator, apply_pulse, build_radiation_operator
from .schedule import Trajectory, TrajectoryRecord, simulate_course

__version__ = "0.1.0"
