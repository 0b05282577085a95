"""Trajectory post-processing: velocity differences, closed-form totals,
reference-table comparison, and parameter sweeps."""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

from .core import CELL_TOTAL, NUMBER, PARAM_TABLE, PULSE_COUNT, AlignmentError, ConfigError
from .core import InvalidParameterError, ModelParams, ParamRow, PopulationState, SimulationError
from .core import lq_exponent, quote
from .schedule import Trajectory, TrajectoryRecord, simulate_course


class DiffPoint(NamedTuple):
    """Velocity difference at one aligned (day, phase) grid point."""

    day: int
    phase: str
    delta: float  # phi of the first trajectory minus phi of the second


class TrajectoryDiff(NamedTuple):
    """Pairwise velocity differences on the shared (day, phase) grid."""

    points: tuple[DiffPoint, ...]
    unmatched_a: int  # records of the first trajectory without a partner
    unmatched_b: int  # records of the second trajectory without a partner


def diff_velocity(a: Trajectory, b: Trajectory) -> TrajectoryDiff:
    """Velocity curve of trajectory a minus trajectory b, aligned by (day, phase).

    Unmatched records on either side are skipped and counted.

    Raises:
        AlignmentError: if either trajectory is empty or repeats a (day, phase)
            point, or the grids share no common point.
    """
    if not a.records or not b.records:
        raise AlignmentError("both trajectories must be nonempty")
    a_at, b_at = _by_point("first", a), _by_point("second", b)
    points = [DiffPoint(*key, rec.phi - b_at[key].phi) for key, rec in a_at.items() if key in b_at]
    if not points:
        raise AlignmentError("the two trajectories share no (day, phase) grid point")
    return TrajectoryDiff(tuple(points), len(a.records) - len(points), len(b.records) - len(points))


def _by_point(which: str, trajectory: Trajectory) -> dict[tuple[int, str], TrajectoryRecord]:
    """Each record keyed by its (day, phase) point, in record order.

    Raises:
        AlignmentError: naming `which` trajectory and the first point it repeats.
    """
    records = {}
    for rec in trajectory.records:
        key = (rec.day, rec.phase)
        if key in records:
            raise AlignmentError(
                f"the {which} trajectory repeats the point day {rec.day}, phase {quote(rec.phase)}"
            )
        records[key] = rec
    return records


def lq_closed_form(n0: float, n: int, params: ModelParams) -> float:
    """Total count after n pulses with growth disabled: N0 * exp(-n(ad + bd^2)).

    Raises:
        InvalidParameterError: if n0 is not a total of cells or n not a pulse count.
    """
    CELL_TOTAL.check("n0", n0)
    PULSE_COUNT.check("n", n)
    return n0 * math.exp(-n * lq_exponent(params))


class GoldenRow(NamedTuple):
    """One row of the bundled reference table."""

    day: int
    phase: str
    y0: float
    y1: float
    y2: float
    velocity: float


def _relative(expected: float, actual: float) -> float:
    scale = max(abs(expected), abs(actual))
    return abs(actual - expected) / scale if scale else 0.0


_GOLDEN_COLUMNS = GoldenRow._fields[2:]
_DAY = ParamRow(int, 1)  # each end of compare_to_golden's inclusive day range


def compare_to_golden(
    trajectory: Trajectory,
    golden: tuple[GoldenRow, ...],
    days: tuple[int, int],
    columns: tuple[str, ...],
) -> tuple[int, float]:
    """The reference rows matched by a trajectory record, and the largest
    relative deviation over their named columns (0.0 if none matched).

    The error metric |actual - expected| / max(|actual|, |expected|) is
    symmetric in its arguments. Only reference rows within the inclusive day
    range are compared, on the named columns (of y0, y1, y2 and velocity);
    reference rows with no matching trajectory record are left out.

    Raises:
        ConfigError: if a requested column is not part of the table schema.
        InvalidParameterError: naming `days`, if it is not a pair of integers >= 1.
        AlignmentError: if the trajectory repeats a (day, phase) point.
    """
    for column in columns:
        if column not in _GOLDEN_COLUMNS:
            raise ConfigError(f"unknown comparison column: {column}")
    if not isinstance(days, (tuple, list)) or len(days) != 2:
        raise InvalidParameterError(f"days must be a pair of integers, got {quote(days)}")
    for day in days:
        _DAY.check("days", day)
    at = _by_point("compared", trajectory)
    matched = 0
    worst = 0.0
    for row in golden:
        rec = at.get((row.day, row.phase))
        if rec is None or not days[0] <= row.day <= days[1]:
            continue
        matched += 1
        for column in columns:
            actual = rec.phi if column == "velocity" else getattr(rec, column)
            worst = max(worst, _relative(getattr(row, column), actual))
    return matched, worst


class SweepEntry(NamedTuple):
    """Summary of one sweep simulation (or the reason it could not run)."""

    value: float
    error: str | None = None
    final_total: float | None = None
    final_phi: float | None = None
    threshold_day: int | None = None  # first day phi reached the caller threshold
    trajectory: Trajectory | None = None


def _sweep_value(
    params: ModelParams,
    key: str,
    initial: PopulationState,
    threshold: float | None,
    value: float,
) -> SweepEntry:
    """The entry of one sweep value; a course the model rejects becomes an error entry."""
    try:
        trajectory = simulate_course(params._replace(**{key: value}), initial)
    except SimulationError as exc:
        return SweepEntry(value=value, error=str(exc))
    final = trajectory.final()
    threshold_day = None
    if threshold is not None:
        for rec in trajectory.post_growth_records():
            if rec.phi >= threshold:
                threshold_day = rec.day
                break
    return SweepEntry(value, None, final.total, final.phi, threshold_day, trajectory)


def sweep(
    params: ModelParams,
    key: str,
    values: tuple[float, ...],
    initial: PopulationState,
    threshold: float | None = None,
) -> Iterator[SweepEntry]:
    """One independent simulation per parameter value, in input order; each
    value's course runs in the calling process when its entry is taken.

    Any ModelParams field can be varied, the course shape included. An
    invalid key, an out-of-range value or a course the model rejects
    yields an error entry for that value and the sweep continues.

    Raises:
        InvalidParameterError: for a threshold that is not a number, a bool
            or NaN, when sweep is called.
    """
    if threshold is not None:
        NUMBER.check("threshold", threshold)
        if math.isnan(threshold):
            raise InvalidParameterError("threshold must be a number, got nan")
    if key not in PARAM_TABLE:
        error = f"unknown parameter: {quote(key)}"
        return (SweepEntry(value=value, error=error) for value in values)
    return (_sweep_value(params, key, initial, threshold, value) for value in values)
