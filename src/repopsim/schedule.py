"""Course composition: weekday pulses plus growth, weekend growth only.

A treatment week consists of pulses_per_week weekdays followed by
weekend_days growth-only days. Each weekday starts with a radiation pulse
and ends with a growth interval; the single exception is the first day of
the course, whose pulse is considered already applied to the supplied
initial state (the initial record mirrors that convention by reporting a
zero velocity). Post-radiation records therefore appear under the day whose
morning produced them, and each full week emits 2 * pulses_per_week +
weekend_days records.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    INITIAL,
    PHASES,
    POST_GROWTH,
    POST_RADIATION,
    RADIATION_PERIOD,
    WEEKEND,
    ModelParams,
    PopulationState,
    mean_velocity,
    v2_of,
    velocities_of,
)
from .errors import InvalidParameterError, InvalidStateError
from .growth import growth_day_detail
from .radiation import apply_pulse, build_radiation_operator


@dataclass(frozen=True)
class ScheduleSpec:
    """Weekly pattern and length of a treatment course."""

    weeks: int  # number of treatment weeks
    pulses_per_week: int = 5  # weekdays opening each week, one pulse each
    weekend_days: int = 2  # growth-only days closing each week
    log_phases: tuple[str, ...] = PHASES  # which record phases are kept

    def __post_init__(self) -> None:
        if self.weeks < 1:
            raise InvalidParameterError(f"weeks must be >= 1, got {self.weeks}")
        if self.pulses_per_week < 0:
            raise InvalidParameterError(
                f"pulses_per_week must be >= 0, got {self.pulses_per_week}"
            )
        if self.weekend_days < 0:
            raise InvalidParameterError(f"weekend_days must be >= 0, got {self.weekend_days}")
        unknown = set(self.log_phases) - set(PHASES)
        if unknown:
            raise InvalidParameterError(f"log_phases contains unknown phases: {sorted(unknown)}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One logged row of a course, mirroring the day-by-day table schema.

    phi is the mean velocity at the end of the most recent mixing stage
    (before the division step reweights the fractions); post-radiation rows
    inherit it unchanged, and the initial row reports the conventional zero.
    The x columns are the record's own counts normalized.
    """

    day: int
    phase: str
    y0: float
    y1: float
    y2: float
    x0: float
    x1: float
    x2: float
    phi: float
    v2: float
    total: float


@dataclass(frozen=True)
class Trajectory:
    """Ordered record log of one course plus integrator diagnostics."""

    records: tuple[TrajectoryRecord, ...]
    integer_rounding: bool = True  # formatting hint: counts are whole cells
    max_simplex_drift: float = 0.0  # worst raw |sum(x) - 1| at any ODE endpoint
    renormalizations: int = 0  # how many growth intervals needed the guard
    extinct: bool = False  # course ended early with the population gone
    extinction_day: int | None = None  # day the total first fell below one cell

    def record(self, day: int, phase: str) -> TrajectoryRecord:
        """The unique record at (day, phase).

        Raises:
            KeyError: if no such record was logged.
        """
        for rec in self.records:
            if rec.day == day and rec.phase == phase:
                return rec
        raise KeyError(f"no record at day {day}, phase {phase!r}")

    def post_growth_records(self) -> tuple[TrajectoryRecord, ...]:
        return tuple(r for r in self.records if r.phase == POST_GROWTH)

    def final(self) -> TrajectoryRecord:
        return self.records[-1]


def _make_record(
    day: int, phase: str, state: PopulationState, phi: float, v2: float
) -> TrajectoryRecord:
    y0, y1, y2 = state.y0, state.y1, state.y2
    total = y0 + y1 + y2
    if total == 0:
        return TrajectoryRecord(day, phase, y0, y1, y2, 0.0, 0.0, 0.0, phi, v2, total)
    return TrajectoryRecord(
        day, phase, y0, y1, y2, y0 / total, y1 / total, y2 / total, phi, v2, total
    )


def phase_velocity(
    state: PopulationState, params: ModelParams, period: str = RADIATION_PERIOD
) -> float:
    """Mean velocity of the state under the v2 in force at its pulse count.

    Raises:
        InvalidStateError: for an empty population.
    """
    x = state.fractions()
    if x is None:
        raise InvalidStateError("mean velocity of an empty population is undefined")
    return mean_velocity(x, velocities_of(params, state.pulses_delivered, period))


def simulate_course(
    params: ModelParams, schedule: ScheduleSpec, initial: PopulationState
) -> Trajectory:
    """Full deterministic course of weekly pulses and growth days.

    Emits the initial record (velocity reported as zero by convention), then
    per week: pulses_per_week weekdays of pulse-then-growth (the course's
    first day skips its pulse, already folded into the initial state), then
    weekend_days growth-only days. In integer mode a total below one cell
    ends the course early and marks the trajectory extinct.

    Raises:
        InvalidStateError: if the initial population is empty.
    """
    if not initial.total() > 0:
        raise InvalidStateError("initial population must have a positive total")
    op = build_radiation_operator(params)
    records: list[TrajectoryRecord] = []
    max_drift = 0.0
    renorms = 0
    extinct = False
    extinction_day: int | None = None

    def emit(day: int, phase: str, state: PopulationState, phi: float, v2: float) -> None:
        if phase in schedule.log_phases:
            records.append(_make_record(day, phase, state, phi, v2))

    # States inside the course are never returned, so their day field is not
    # restamped: every record carries its own (day, phase).
    state = initial
    emit(1, INITIAL, state, 0.0, v2_of(params, state.pulses_delivered, RADIATION_PERIOD))
    day = 1
    previous_phi = 0.0
    first_weekday = True

    def grown(state: PopulationState, period: str) -> PopulationState:
        nonlocal max_drift, renorms, previous_phi
        step = growth_day_detail(state, params, state.pulses_delivered, period)
        max_drift = max(max_drift, step.drift)
        renorms += int(step.renormalized)
        emit(day, POST_GROWTH, step.state, step.phi, step.v2)
        previous_phi = step.phi
        return step.state

    def gone(state: PopulationState) -> bool:
        nonlocal extinct, extinction_day
        if params.integer_rounding and state.total() < 1:
            extinct = True
            extinction_day = day
            return True
        return False

    stop = False
    for _ in range(schedule.weeks):
        for _ in range(schedule.pulses_per_week):
            if not first_weekday:
                state = apply_pulse(op, state, params.integer_rounding)
                emit(
                    day,
                    POST_RADIATION,
                    state,
                    previous_phi,
                    v2_of(params, state.pulses_delivered, RADIATION_PERIOD),
                )
                if gone(state):
                    stop = True
                    break
            first_weekday = False
            state = grown(state, RADIATION_PERIOD)
            if gone(state):
                stop = True
                break
            day += 1
        if stop:
            break
        for _ in range(schedule.weekend_days):
            state = grown(state, WEEKEND)
            if gone(state):
                stop = True
                break
            day += 1
        if stop:
            break

    return Trajectory(
        records=tuple(records),
        integer_rounding=params.integer_rounding,
        max_simplex_drift=max_drift,
        renormalizations=renorms,
        extinct=extinct,
        extinction_day=extinction_day,
    )
