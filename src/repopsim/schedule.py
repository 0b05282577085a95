"""Course composition: weekday pulses plus growth, weekend growth only.

A treatment week consists of pulses_per_week weekdays followed by
weekend_days growth-only days. Each weekday starts with a radiation pulse
and ends with a growth interval; the single exception is the first day of
the course, whose pulse is considered already applied to the supplied
initial state (the initial record mirrors that convention by reporting a
zero velocity, and day 1's v2). Post-radiation records
therefore appear under the day whose morning produced them, and each full
week emits 2 * pulses_per_week + weekend_days records.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .core import INITIAL, POST_GROWTH, POST_RADIATION, ModelParams, PopulationState, v2_of
from .errors import InvalidStateError, NumericInstabilityError
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
    """Ordered record log of one course plus simplex diagnostics."""

    records: tuple[TrajectoryRecord, ...]
    integer_rounding: bool = True  # formatting hint: counts are whole cells
    max_simplex_drift: float = 0.0  # worst |sum(x) - 1| at any mixing endpoint
    extinction_day: int | None = None  # day the total first fell below one cell

    @property
    def extinct(self) -> bool:
        """Whether the course ended early with the population gone."""
        return self.extinction_day is not None

    def post_growth_records(self) -> tuple[TrajectoryRecord, ...]:
        return tuple(r for r in self.records if r.phase == POST_GROWTH)

    def final(self) -> TrajectoryRecord:
        return self.records[-1]


def _extinct(total: float, rounding: bool, day: int) -> bool:
    """Whether a total below one cell on `day` ends the course, as it does in
    integer mode; a real-valued total of zero, with no fractions left to grow,
    raises NumericInstabilityError."""
    if not rounding and total == 0:
        raise NumericInstabilityError(f"real-valued cell counts underflow to zero on day {day}")
    return rounding


def _stages(params: ModelParams, initial: PopulationState) -> Iterator[tuple]:
    """The course's states in record order, as (day, phase, counts, phi, v2,
    drift): drift is the growth day's, and 0 for the other phases."""
    op = build_radiation_operator(params)
    rounding = params.integer_rounding
    week = params.pulses_per_week + params.weekend_days
    counts = (initial.y0, initial.y1, initial.y2)
    pulses = initial.pulses_delivered
    phi = 0.0
    yield 1, INITIAL, counts, phi, v2_of(params, pulses, params.pulses_per_week > 0), 0.0
    for day in range(1, params.weeks * week + 1):
        treatment = (day - 1) % week < params.pulses_per_week
        pulsed = treatment and day > 1
        if pulsed:
            counts = apply_pulse(op, counts, rounding)
            pulses += 1
        # One v2 a day, shared by its records and its growth.
        v2 = v2_of(params, pulses, treatment)
        if pulsed:
            yield day, POST_RADIATION, counts, phi, v2, 0.0
        counts, phi, drift = growth_day_detail(counts, params, v2)
        yield day, POST_GROWTH, counts, phi, v2, drift


def simulate_course(params: ModelParams, initial: PopulationState) -> Trajectory:
    """Full deterministic course of weekly pulses and growth days.

    Emits the initial record, then walks the params.weeks weeks of the
    course shape (see the module docstring) day by day. In integer mode a
    total below one cell after any record but the initial one ends the course
    early and marks the trajectory extinct.

    Raises:
        InvalidStateError: if the initial population is empty.
        NumericInstabilityError: if real-valued counts underflow to zero.
    """
    if not initial.total() > 0:
        raise InvalidStateError("initial population must have a positive total")
    rounding = params.integer_rounding
    records = []
    max_drift = 0.0
    extinction_day: int | None = None
    for day, phase, (y0, y1, y2), phi, v2, drift in _stages(params, initial):
        if drift > max_drift:
            max_drift = drift
        total = y0 + y1 + y2
        if total:
            x0, x1, x2 = y0 / total, y1 / total, y2 / total
        else:
            x0 = x1 = x2 = 0.0
        records.append(TrajectoryRecord(day, phase, y0, y1, y2, x0, x1, x2, phi, v2, total))
        if total < 1 and phase is not INITIAL and _extinct(total, rounding, day):
            extinction_day = day
            break

    return Trajectory(
        records=tuple(records),
        integer_rounding=rounding,
        max_simplex_drift=max_drift,
        extinction_day=extinction_day,
    )
