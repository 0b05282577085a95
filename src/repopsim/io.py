"""File formats: trajectory tables, difference curves, sweep summaries, and
the bundled reference table.

All files are plain UTF-8 text with a fixed header line. Real values carry
nine decimal digits; counts are written as integers whenever the trajectory
was produced with integer rounding. Output is byte-identical across repeated
runs with identical inputs.
"""

from __future__ import annotations

import csv
import hashlib
from importlib import resources
from pathlib import Path

from .analysis import GoldenRow, SweepEntry, TrajectoryDiff
from .errors import SchemaError
from .schedule import Trajectory, TrajectoryRecord

TRAJECTORY_HEADER = "day,phase,y0,y1,y2,x0,x1,x2,phi,v2,total"
DIFF_HEADER = "day,phase,delta_phi"
SWEEP_HEADER = "value,final_total,final_phi,threshold_day,error"
REFERENCE_HEADER = "day|phase|y0|y1|y2|velocity"

# Checksum of the bundled reference table, verified on every load so the
# fixture cannot drift silently.
REFERENCE_SHA256 = "9ac0f8196bf70775f7ac70651e22e4bbd7226ff92b2b8018fba62e75ed92c8ac"

_REFERENCE_RESOURCE = "reference_course.psv"


def _format_real(value: float) -> str:
    return f"{value:.9f}"


def write_trajectory(trajectory: Trajectory, destination: str | Path) -> None:
    """Write a trajectory as a comma-separated table, one record per line."""
    records = trajectory.records
    if trajectory.integer_rounding:
        rows = [
            f"{r.day},{r.phase},{int(r.y0)},{int(r.y1)},{int(r.y2)},{r.x0:.9f},{r.x1:.9f},"
            f"{r.x2:.9f},{r.phi:.9f},{r.v2:.9f},{int(r.total)}\n"
            for r in records
        ]
    else:
        rows = [
            f"{r.day},{r.phase},{r.y0:.9f},{r.y1:.9f},{r.y2:.9f},{r.x0:.9f},{r.x1:.9f},"
            f"{r.x2:.9f},{r.phi:.9f},{r.v2:.9f},{r.total:.9f}\n"
            for r in records
        ]
    Path(destination).write_text(TRAJECTORY_HEADER + "\n" + "".join(rows), encoding="utf-8")


def read_trajectory(source: str | Path) -> Trajectory:
    """Parse a trajectory table written by write_trajectory.

    The returned trajectory carries exactly the file's values; integrator
    diagnostics are not serialized and come back as zeros.

    Raises:
        SchemaError: for a wrong header or column count, or a cell that is not a number.
    """
    text = Path(source).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != TRAJECTORY_HEADER:
        got = lines[0] if lines else "<empty file>"
        raise SchemaError(f"expected header {TRAJECTORY_HEADER!r}, got {got!r}")
    records = []
    integer_rounding = True
    for number, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != 11:
            raise SchemaError(f"expected 11 columns, got {len(cells)}: {line!r}")
        day, phase, y0, y1, y2, x0, x1, x2, phi, v2, total = cells
        if integer_rounding and ("." in y0 or "." in y1 or "." in y2 or "." in total):
            integer_rounding = False
        try:
            records.append(
                TrajectoryRecord(
                    int(day), phase, float(y0), float(y1), float(y2), float(x0),
                    float(x1), float(x2), float(phi), float(v2), float(total),
                )
            )
        except ValueError as exc:
            raise SchemaError(f"line {number}: {exc}: {line!r}") from None
    return Trajectory(records=tuple(records), integer_rounding=integer_rounding)


def write_diff(diff: TrajectoryDiff, destination: str | Path) -> None:
    """Write a velocity-difference curve as a comma-separated table."""
    lines = [DIFF_HEADER]
    for point in diff.points:
        lines.append(f"{point.day},{point.phase},{_format_real(point.delta)}")
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sweep_summary(entries: tuple[SweepEntry, ...], destination: str | Path) -> None:
    """Write one summary line per sweep value (error text is quoted as needed)."""
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SWEEP_HEADER.split(","))
        for entry in entries:
            if entry.error is not None:
                writer.writerow([repr(entry.value), "", "", "", entry.error])
                continue
            threshold_day = "" if entry.threshold_day is None else str(entry.threshold_day)
            writer.writerow(
                [
                    repr(entry.value),
                    _format_real(entry.final_total),
                    _format_real(entry.final_phi),
                    threshold_day,
                    "",
                ]
            )


def _parse_reference(text: str, origin: str) -> tuple[GoldenRow, ...]:
    lines = text.splitlines()
    if not lines or lines[0] != REFERENCE_HEADER:
        got = lines[0] if lines else "<empty file>"
        raise SchemaError(
            f"{origin}: expected header {REFERENCE_HEADER!r}, got {got!r}"
        )
    rows = []
    for line in lines[1:]:
        cells = line.split("|")
        if len(cells) != 6:
            raise SchemaError(f"{origin}: expected 6 columns, got {len(cells)}: {line!r}")
        rows.append(
            GoldenRow(
                day=int(cells[0]),
                phase=cells[1],
                y0=float(cells[2]),
                y1=float(cells[3]),
                y2=float(cells[4]),
                velocity=float(cells[5]),
            )
        )
    return tuple(rows)


def load_reference_table(source: str | Path | None = None) -> tuple[GoldenRow, ...]:
    """Load a pipe-delimited reference table; default is the bundled one.

    The bundled table is checksummed on load.

    Raises:
        SchemaError: on a header or column mismatch, or if the bundled table
            fails its checksum.
    """
    if source is None:
        data = (resources.files(__package__) / "data" / _REFERENCE_RESOURCE).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != REFERENCE_SHA256:
            raise SchemaError(
                f"bundled reference table checksum mismatch: {digest} != {REFERENCE_SHA256}"
            )
        return _parse_reference(data.decode("utf-8"), _REFERENCE_RESOURCE)
    return _parse_reference(Path(source).read_text(encoding="utf-8"), str(source))
