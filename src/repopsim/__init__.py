"""Deterministic simulator of a three-fraction cell population under pulsed
weekly therapy: survival-scaled radiation pulses composed with replicator
growth and mutation, logged as day-by-day trajectory tables."""

from .analysis import (
    CellDeviation,
    ComparisonReport,
    DiffPoint,
    GoldenRow,
    SweepEntry,
    TrajectoryDiff,
    compare_to_golden,
    diff_velocity,
    lq_closed_form,
    sweep,
)
from .config import RunConfig, load_config, parse_config, write_config
from .core import (
    INITIAL,
    PERIODS,
    PHASES,
    POST_GROWTH,
    POST_RADIATION,
    RADIATION_PERIOD,
    WEEKEND,
    ModelParams,
    PopulationState,
    VelocityVector,
    fractions_to_counts,
    mean_velocity,
    psi,
    snap_count,
    survival_fraction,
    v2_of,
    velocities_of,
    velocity_from_doubling_time,
)
from .errors import (
    AlignmentError,
    ConfigError,
    InvalidParameterError,
    InvalidStateError,
    NumericInstabilityError,
    SchemaError,
    SimulationError,
)
from .growth import (
    GrowthStep,
    ReplicatorField,
    apply_division,
    growth_day_detail,
    integrate_growth,
    replicator_rhs,
)
from .io import (
    load_reference_table,
    read_trajectory,
    write_diff,
    write_sweep_summary,
    write_trajectory,
)
from .radiation import RadiationOperator, apply_pulse, build_radiation_operator, pulse_power
from .schedule import Trajectory, TrajectoryRecord, simulate_course

__version__ = "0.1.0"
