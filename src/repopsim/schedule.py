"""Course composition: weekday pulses plus growth, weekend growth only.

A treatment week consists of pulses_per_week weekdays followed by
weekend_days growth-only days. Each weekday starts with a radiation pulse
and ends with a growth interval; the single exception is the first day of
the course, whose pulse is considered already applied to the supplied
initial state (the initial record mirrors that convention by reporting a
zero velocity, and the v2 of day 1's period). Post-radiation records
therefore appear under the day whose morning produced them, and each full
week emits 2 * pulses_per_week + weekend_days records.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    INITIAL,
    POST_GROWTH,
    POST_RADIATION,
    RADIATION_PERIOD,
    WEEKEND,
    ModelParams,
    PopulationState,
    v2_of,
)
from .errors import InvalidStateError
from .growth import growth_day_detail
from .radiation import apply_pulse, build_radiation_operator


@dataclass(slots=True)
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
    extinction_day: int | None = None  # day the total first fell below one cell

    @property
    def extinct(self) -> bool:
        """Whether the course ended early with the population gone."""
        return self.extinction_day is not None

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


def simulate_course(params: ModelParams, initial: PopulationState) -> Trajectory:
    """Full deterministic course of weekly pulses and growth days.

    Emits the initial record, then walks the params.weeks weeks of the
    course shape (see the module docstring) day by day. In integer mode a
    total below one cell after any record ends the course early and marks
    the trajectory extinct.

    Raises:
        InvalidStateError: if the initial population is empty.
    """
    if not initial.total() > 0:
        raise InvalidStateError("initial population must have a positive total")
    op = build_radiation_operator(params)
    rounding = params.integer_rounding
    week = params.pulses_per_week + params.weekend_days
    first_period = RADIATION_PERIOD if params.pulses_per_week else WEEKEND
    v2 = v2_of(params, initial.pulses_delivered, first_period)
    records = [_make_record(1, INITIAL, initial, 0.0, v2)]
    max_drift = 0.0
    renorms = 0
    extinction_day: int | None = None
    state = initial
    phi = 0.0
    for day in range(1, params.weeks * week + 1):
        treatment = (day - 1) % week < params.pulses_per_week
        if treatment and day > 1:
            state = apply_pulse(op, state, rounding)
            v2 = v2_of(params, state.pulses_delivered, RADIATION_PERIOD)
            records.append(_make_record(day, POST_RADIATION, state, phi, v2))
            if rounding and state.total() < 1:
                extinction_day = day
                break
        step = growth_day_detail(state, params, RADIATION_PERIOD if treatment else WEEKEND)
        state, phi = step.state, step.phi
        max_drift = max(max_drift, step.drift)
        renorms += step.renormalized
        records.append(_make_record(day, POST_GROWTH, state, phi, step.v2))
        if rounding and state.total() < 1:
            extinction_day = day
            break

    return Trajectory(
        records=tuple(records),
        integer_rounding=rounding,
        max_simplex_drift=max_drift,
        renormalizations=renorms,
        extinction_day=extinction_day,
    )
