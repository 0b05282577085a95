"""Course composition: weekday pulses plus growth, weekend growth only.

A treatment week consists of pulses_per_week weekdays followed by
weekend_days growth-only days. Each weekday starts with a radiation pulse
and ends with a growth interval; the single exception is the first day of
the course, whose pulse is considered already applied to the supplied
initial state (the initial record mirrors that convention by reporting a
zero velocity, and day 1's v2). Post-radiation records therefore appear under
the day whose morning produced them, and each full week emits
2 * pulses_per_week + weekend_days records.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import INITIAL, POST_GROWTH, POST_RADIATION, InvalidStateError, ModelParams
from .core import NumericInstabilityError, PopulationState, _psis
from .growth import growth_day_detail
from .radiation import apply_pulse, build_radiation_operator


class TrajectoryRecord(NamedTuple):
    """One logged row of a course, its fields in the day-by-day table's column order.

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


class Trajectory(NamedTuple):
    """Ordered record log of one course, and how it ended."""

    records: tuple[TrajectoryRecord, ...]
    integer_rounding: bool  # counts are whole cells, so a file writes them as integers
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
    """Whether a total below one cell ends the course, as in integer mode; real zeros raise."""
    if not rounding and total == 0:
        raise NumericInstabilityError(f"real-valued cell counts underflow to zero on day {day}")
    return rounding


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
    op = build_radiation_operator(params)
    rounding = params.integer_rounding
    per_week = params.pulses_per_week
    week = per_week + params.weekend_days
    first = pulses = initial.pulses_delivered
    # (weekend, treatment) psi by pulses so far; a day's v2 is (a * v1) * psi.
    psis = _psis(params, range(first, first + params.weeks * per_week + 1))
    av1 = params.a * params.v1
    y0, y1, y2 = initial.y0, initial.y1, initial.y2
    total = y0 + y1 + y2
    phi = 0.0
    v2 = av1 * psis[0][per_week > 0]
    x0, x1, x2 = y0 / total, y1 / total, y2 / total
    row = TrajectoryRecord._make  # a record from its tuple of fields, in one step
    records = [row((1, INITIAL, y0, y1, y2, x0, x1, x2, phi, v2, total))]
    counts = (float(y0), float(y1), float(y2))  # the growth step takes floats, unchecked
    for day in range(1, params.weeks * week + 1):
        treatment = (day - 1) % week < per_week
        if treatment and day > 1:
            y0, y1, y2 = counts = apply_pulse(op, counts, rounding)
            pulses += 1
            v2 = av1 * psis[pulses - first][True]
            total = y0 + y1 + y2
            x0, x1, x2 = (y0 / total, y1 / total, y2 / total) if total else (0.0, 0.0, 0.0)
            records.append(row((day, POST_RADIATION, y0, y1, y2, x0, x1, x2, phi, v2, total)))
            if total < 1 and _extinct(total, rounding, day):
                return Trajectory(tuple(records), rounding, extinction_day=day)
        else:
            v2 = av1 * psis[pulses - first][treatment]
        counts, phi = growth_day_detail(counts, params, v2)
        y0, y1, y2 = counts
        total = y0 + y1 + y2
        x0, x1, x2 = (y0 / total, y1 / total, y2 / total) if total else (0.0, 0.0, 0.0)
        records.append(row((day, POST_GROWTH, y0, y1, y2, x0, x1, x2, phi, v2, total)))
        if total < 1 and _extinct(total, rounding, day):
            return Trajectory(tuple(records), rounding, extinction_day=day)
    return Trajectory(tuple(records), rounding)
