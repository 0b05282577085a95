"""Trajectory post-processing: velocity differences, closed-form totals,
reference-table comparison, and parameter sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Callable

from .core import CELL_TOTAL, PARAM_TABLE, PULSE_COUNT, ModelParams, PopulationState, lq_exponent
from .errors import AlignmentError, ConfigError, InvalidParameterError, SimulationError, quote
from .schedule import Trajectory, simulate_course


@dataclass(slots=True)
class DiffPoint:
    """Velocity difference at one aligned (day, phase) grid point."""

    day: int
    phase: str
    delta: float  # phi of the first trajectory minus phi of the second


@dataclass(frozen=True)
class TrajectoryDiff:
    """Pairwise velocity differences on the shared (day, phase) grid."""

    points: tuple[DiffPoint, ...]
    unmatched_a: int  # records of the first trajectory without a partner
    unmatched_b: int  # records of the second trajectory without a partner


def diff_velocity(a: Trajectory, b: Trajectory) -> TrajectoryDiff:
    """Velocity curve of trajectory a minus trajectory b, aligned by (day, phase).

    Unmatched records on either side are skipped and counted.

    Raises:
        AlignmentError: if either trajectory is empty or the grids share no
            common point.
    """
    if not a.records or not b.records:
        raise AlignmentError("both trajectories must be nonempty")
    b_phi = {(rec.day, rec.phase): rec.phi for rec in b.records}
    points = []
    for rec in a.records:
        key = (rec.day, rec.phase)
        if key in b_phi:
            points.append(DiffPoint(day=rec.day, phase=rec.phase, delta=rec.phi - b_phi[key]))
    if not points:
        raise AlignmentError("the two trajectories share no (day, phase) grid point")
    return TrajectoryDiff(
        points=tuple(points),
        unmatched_a=len(a.records) - len(points),
        unmatched_b=len(b.records) - len(points),
    )


def lq_closed_form(n0: float, n: int, params: ModelParams) -> float:
    """Total count after n pulses with growth disabled: N0 * exp(-n(ad + bd^2)).

    Raises:
        InvalidParameterError: if n0 is not a total of cells or n not a pulse count.
    """
    CELL_TOTAL.check("n0", n0)
    PULSE_COUNT.check("n", n)
    return n0 * math.exp(-n * lq_exponent(params))


@dataclass(slots=True)
class GoldenRow:
    """One row of the bundled reference table."""

    day: int
    phase: str
    y0: float
    y1: float
    y2: float
    velocity: float


@dataclass(slots=True)
class CellDeviation:
    """Relative deviation of a single compared table cell."""

    day: int
    phase: str
    column: str
    expected: float
    actual: float
    relative: float


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing a trajectory against a reference table."""

    matched: int  # reference rows aligned with a trajectory record
    skipped: int  # reference rows without a trajectory partner
    worst: CellDeviation | None  # largest relative deviation among compared cells
    failures: tuple[CellDeviation, ...]  # cells beyond the tolerance

    @property
    def passed(self) -> bool:
        return not self.failures


def _relative(expected: float, actual: float) -> float:
    scale = max(abs(expected), abs(actual))
    if scale == 0:
        return 0.0
    return abs(actual - expected) / scale


_GOLDEN_COLUMNS = ("y0", "y1", "y2", "velocity")


def compare_to_golden(
    trajectory: Trajectory,
    golden: tuple[GoldenRow, ...],
    tolerance: float,
    days: tuple[int, int],
    columns: tuple[str, ...],
) -> ComparisonReport:
    """Cell-by-cell comparison of a trajectory against a reference table.

    The error metric |actual - expected| / max(|actual|, |expected|) is
    symmetric in its arguments. Only reference rows within the inclusive day
    range are compared, on the named columns (of y0, y1, y2 and velocity);
    reference rows with no matching trajectory record are skipped and counted.

    Raises:
        ConfigError: if a requested column is not part of the table schema.
    """
    for column in columns:
        if column not in _GOLDEN_COLUMNS:
            raise ConfigError(f"unknown comparison column: {column}")
    by_key = {(rec.day, rec.phase): rec for rec in trajectory.records}
    matched = 0
    skipped = 0
    worst: CellDeviation | None = None
    failures = []
    for row in golden:
        if not days[0] <= row.day <= days[1]:
            continue
        rec = by_key.get((row.day, row.phase))
        if rec is None:
            skipped += 1
            continue
        matched += 1
        for column in columns:
            expected = getattr(row, column)
            actual = rec.phi if column == "velocity" else getattr(rec, column)
            deviation = CellDeviation(
                day=row.day,
                phase=row.phase,
                column=column,
                expected=expected,
                actual=actual,
                relative=_relative(expected, actual),
            )
            if worst is None or deviation.relative > worst.relative:
                worst = deviation
            if deviation.relative > tolerance:
                failures.append(deviation)
    return ComparisonReport(
        matched=matched, skipped=skipped, worst=worst, failures=tuple(failures)
    )


@dataclass(frozen=True)
class SweepEntry:
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
        trajectory = simulate_course(dc_replace(params, **{key: value}), initial)
    except SimulationError as exc:
        return SweepEntry(value=value, error=str(exc))
    final = trajectory.final()
    threshold_day = None
    if threshold is not None:
        for rec in trajectory.post_growth_records():
            if rec.phi >= threshold:
                threshold_day = rec.day
                break
    return SweepEntry(
        value=value,
        final_total=final.total,
        final_phi=final.phi,
        threshold_day=threshold_day,
        trajectory=trajectory,
    )


def sweep(
    params: ModelParams,
    key: str,
    values: tuple[float, ...],
    initial: PopulationState,
    threshold: float | None = None,
    each: Callable[[SweepEntry], SweepEntry] | None = None,
) -> tuple[SweepEntry, ...]:
    """One independent simulation per parameter value, in input order.

    Any ModelParams field can be varied, the course shape included. An
    invalid key, an out-of-range value or a course the model rejects
    yields an error entry for that value and the sweep continues.

    The values run one after another in the calling process. A course
    takes about a millisecond, so a forked worker's copy-on-write faults and
    its wait for a free CPU would eat most of what it saves, and more than
    all of it while the other CPUs are busy. each, if given, replaces the
    entry of a value as soon as the value has run: a caller can write the
    trajectory there and keep the entry without it. Without each, the
    entries carry their trajectories.

    Raises:
        InvalidParameterError: for a NaN threshold, before any course runs.
        OSError: raised by each.
    """
    if threshold is not None and math.isnan(threshold):
        raise InvalidParameterError("threshold must be a number, got nan")
    if key not in PARAM_TABLE:
        error = f"unknown parameter: {quote(key)}"
        return tuple(SweepEntry(value=value, error=error) for value in values)
    entries = (_sweep_value(params, key, initial, threshold, value) for value in values)
    return tuple(entries if each is None else map(each, entries))
