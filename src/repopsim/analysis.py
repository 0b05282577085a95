"""Trajectory post-processing: velocity differences, closed-form totals,
reference-table comparison, and parameter sweeps."""

from __future__ import annotations

import functools
import math
import os
import sys
import tempfile
import threading
from dataclasses import dataclass, replace as dc_replace
from typing import IO, NoReturn

from .core import PARAM_TABLE, ModelParams, PopulationState
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
        InvalidParameterError: if n is negative.
    """
    if n < 0:
        raise InvalidParameterError(f"pulse count must be >= 0, got {n}")
    d = params.dose
    return n0 * math.exp(-n * (params.alpha * d + params.beta * d * d))


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
    days: tuple[int, int] | None = None,
    columns: tuple[str, ...] = _GOLDEN_COLUMNS,
) -> ComparisonReport:
    """Cell-by-cell comparison of a trajectory against a reference table.

    The error metric |actual - expected| / max(|actual|, |expected|) is
    symmetric in its arguments. An optional inclusive day range and column
    subset restrict the comparison; reference rows with no matching
    trajectory record are skipped and counted.

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
        if days is not None and not days[0] <= row.day <= days[1]:
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
) -> tuple[SweepEntry, ...]:
    """One independent simulation per parameter value, in input order.

    Any ModelParams field can be varied, the course shape included. An
    invalid key, an out-of-range value or a course the model rejects
    yields an error entry for that value and the sweep continues.

    The values run in W = min(value count, usable CPUs) processes: value k
    runs in process k mod W, the calling process and W - 1 forked children.
    The entries equal a serial run's, so the files written from them are
    byte-identical. A serial run is the one-process case of the same path:
    W is 1 when the platform has no fork, under a profiler or tracer
    (cProfile, coverage, a debugger) or when another thread is alive, and a
    share whose unlinked temporary file or fork cannot be made runs in the
    calling process. Each child pickles its entries into its own such file,
    so it never waits on the parent. A child failure other than a rejected
    course raises RuntimeError. Every exit, a failure, a killed child or an
    interrupt, kills the children still running, reaps them and closes
    their files.

    Raises:
        InvalidParameterError: for a NaN threshold, before any course runs.
    """
    if threshold is not None and math.isnan(threshold):
        raise InvalidParameterError("threshold must be a number, got nan")
    if key not in PARAM_TABLE:
        error = f"unknown parameter: {quote(key)}"
        return tuple(SweepEntry(value=value, error=error) for value in values)
    one = functools.partial(_sweep_value, params, key, initial, threshold)
    workers = min(len(values), _usable_cpus()) if _can_fork() else 1
    return _forked_sweep(one, values, workers)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether forking is safe and hides nothing.

    A profiler or tracer sees only its own process's calls, and a fork
    copies only the calling thread, whatever locks the others hold.
    """
    return (
        hasattr(os, "fork")
        and sys.getprofile() is None
        and sys.gettrace() is None
        and threading.active_count() == 1
    )


def _entry_frame(entry: SweepEntry) -> bytes:
    """An entry as one pickle: the bytes a child writes for it."""
    import pickle  # loaded on the forked path only

    return pickle.dumps(entry, pickle.HIGHEST_PROTOCOL)


def _serve_share(file: IO[bytes], one, values: tuple) -> NoReturn:
    """Child side: one pickle per entry, then exit 0; on a failure, the pickled
    traceback text, then exit 1. A regular file never blocks its writer, and
    os._exit runs no atexit handler and flushes no inherited buffer."""
    code = 0
    try:
        for value in values:
            file.write(_entry_frame(one(value)))
    except BaseException:
        import pickle
        import traceback

        file.write(pickle.dumps(traceback.format_exc()))
        code = 1
    file.flush()
    os._exit(code)


def _forked_sweep(one, values: tuple, workers: int) -> tuple[SweepEntry, ...]:
    """one(value) for every value, value k in share k mod workers, in input order.

    Share 0 runs here; each other share runs in a forked child that pickles
    its entries into an unlinked temporary file, read once the child is
    reaped. A share whose file or fork fails also runs here, and one worker
    forks nothing. Every exit, a failure or an interrupt included, kills and
    reaps each child not yet reaped and closes every file.
    """
    files: list[IO[bytes]] = []
    children: dict[int, tuple[IO[bytes], int]] = {}  # pid -> (file, share), until reaped
    try:
        for share in range(1, workers):
            try:
                files.append(tempfile.TemporaryFile())
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                try:
                    _serve_share(files[-1], one, values[share::workers])
                finally:
                    os._exit(1)
            children[pid] = (files[-1], share)
        forked = {share for _, share in children.values()}
        entries = [None if k % workers in forked else one(value) for k, value in enumerate(values)]
        for pid, (file, share) in tuple(children.items()):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code < 0:
                raise RuntimeError(f"sweep worker {pid} was killed by signal {-code}")
            import pickle  # loaded on the forked path only

            problem = None
            file.seek(0)
            for k in range(share, len(values), workers):
                try:
                    entry = pickle.load(file)
                except (EOFError, pickle.UnpicklingError):
                    problem = f"its frame for value {quote(values[k])} was cut short"
                    break
                if isinstance(entry, str):
                    problem = entry
                    break
                entries[k] = entry
            if code or problem:
                detail = (problem or "no traceback").strip()
                raise RuntimeError(f"sweep worker {pid} exited with code {code}:\n{detail}")
        return tuple(entries)
    finally:
        for pid in children:
            import signal  # only an early exit leaves a child unreaped

            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped just before an interrupt
        for file in files:
            file.close()
