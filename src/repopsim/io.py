"""File formats: trajectory tables, difference curves, sweep summaries, and
the bundled reference table.

All files are plain UTF-8 text with a fixed header line. Real values carry
nine decimal digits; counts are written as integers whenever the trajectory
was produced with integer rounding. Output is byte-identical across repeated
runs with identical inputs.
"""

from __future__ import annotations

import sys
from importlib import resources
from pathlib import Path

from .analysis import GoldenRow, SweepEntry, TrajectoryDiff
from .core import PHASES, SchemaError, quote
from .schedule import Trajectory, TrajectoryRecord

# A table's columns are its row type's fields; a diff or sweep row's fields are not its columns.
TRAJECTORY_HEADER = ",".join(TrajectoryRecord._fields)
DIFF_HEADER = "day,phase,delta_phi"
SWEEP_HEADER = "value,final_total,final_phi,threshold_day,error"

# Checksum of the bundled reference table, verified on every load so the
# fixture cannot drift silently.
REFERENCE_SHA256 = "9ac0f8196bf70775f7ac70651e22e4bbd7226ff92b2b8018fba62e75ed92c8ac"

_REFERENCE_RESOURCE = "reference_course.psv"


def _cell_error(where: str, line: str, cells: list[str]) -> SchemaError:
    """The error for a row on which int() of the day or float() of a later cell raised."""
    parsers = (int, str) + (float,) * (len(cells) - 2)  # day, phase, then reals
    for parse, cell in zip(parsers, cells):
        try:
            parse(cell)
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            return SchemaError(f"{where}: {quote(cell)} is not {kind}: {quote(line)}")


# One row template per count mode over a record's fields, which are the
# header's columns in order: "%d" writes str(int(count)), and NaN or inf
# raise as int() does.
_INTEGER_ROW = "%d,%s,%d,%d,%d,%.9f,%.9f,%.9f,%.9f,%.9f,%d\n"
_REAL_ROW = "%d,%s" + ",%.9f" * 9 + "\n"


def write_trajectory(trajectory: Trajectory, destination: str | Path) -> None:
    """Write a trajectory as a comma-separated table, one record per line."""
    row = _INTEGER_ROW if trajectory.integer_rounding else _REAL_ROW
    rows = [row % record for record in trajectory.records]
    Path(destination).write_text(TRAJECTORY_HEADER + "\n" + "".join(rows), encoding="utf-8")


def read_trajectory(source: str | Path) -> Trajectory:
    """Parse a trajectory table written by write_trajectory.

    The returned trajectory carries exactly the file's values.

    Raises:
        SchemaError: naming the file, for one that is not UTF-8 text, a wrong
            header or column count, an unknown phase, or a cell that is not a number.
    """
    origin = str(source)
    try:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{origin}: not UTF-8 text: {exc}") from None
    if not lines or lines[0] != TRAJECTORY_HEADER:
        got = lines[0] if lines else "<empty file>"
        raise SchemaError(f"{origin}: expected header {TRAJECTORY_HEADER!r}, got {quote(got)}")
    width = len(TrajectoryRecord._fields)
    row = TrajectoryRecord._make  # a record from its tuple of fields, in one step
    records = []
    integer_rounding = True
    for number, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != width:
            raise SchemaError(
                f"{origin}: line {number}: expected {width} columns, "
                f"got {len(cells)}: {quote(line)}"
            )
        day, phase, y0, y1, y2, x0, x1, x2, phi, v2, total = cells
        if phase not in PHASES:
            raise SchemaError(f"{origin}: line {number}: unknown phase {quote(phase)}")
        if integer_rounding and ("." in y0 or "." in y1 or "." in y2 or "." in total):
            integer_rounding = False
        try:
            records.append(row((
                int(day), phase, float(y0), float(y1), float(y2), float(x0),
                float(x1), float(x2), float(phi), float(v2), float(total),
            )))
        except ValueError:
            raise _cell_error(f"{origin}: line {number}", line, cells) from None
    return Trajectory(records=tuple(records), integer_rounding=integer_rounding)


def write_diff(diff: TrajectoryDiff, destination: str | Path) -> None:
    """Write a velocity-difference curve as a comma-separated table."""
    rows = ["%d,%s,%.9f\n" % point for point in diff.points]
    Path(destination).write_text(DIFF_HEADER + "\n" + "".join(rows), encoding="utf-8")


def write_sweep_summary(entries: tuple[SweepEntry, ...], destination: str | Path) -> None:
    """Write one summary line per sweep value (error text is quoted as needed)."""
    import csv  # only sweep writes a summary, so the other commands skip its import

    with Path(destination).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SWEEP_HEADER.split(","))
        for entry in entries:
            if entry.error is not None:
                writer.writerow([quote(entry.value), "", "", "", entry.error])
                continue
            total, phi = "%.9f" % entry.final_total, "%.9f" % entry.final_phi
            day = "" if entry.threshold_day is None else entry.threshold_day
            writer.writerow([repr(entry.value), total, phi, day, ""])


def load_reference_table() -> tuple[GoldenRow, ...]:
    """Load the bundled pipe-delimited reference table.

    Its bytes are checksummed before they are parsed, so no cell of it can be
    malformed.

    Raises:
        SchemaError: if the bundled bytes do not match REFERENCE_SHA256.
    """
    # The interpreter's own SHA-256, since hashlib would map OpenSSL's libcrypto, picked by
    # version: a failed import would search sys.path again on every call.
    try:  # only check hashes, so the other commands skip these imports
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # neither is built
        from hashlib import sha256
    data = (resources.files(__package__) / "data" / _REFERENCE_RESOURCE).read_bytes()
    digest = sha256(data).hexdigest()
    if digest != REFERENCE_SHA256:
        raise SchemaError(
            f"bundled reference table checksum mismatch: {digest} != {REFERENCE_SHA256}"
        )
    rows = []
    for line in data.decode("utf-8").splitlines()[1:]:
        day, phase, y0, y1, y2, velocity = line.split("|")
        rows.append(GoldenRow(int(day), phase, float(y0), float(y1), float(y2), float(velocity)))
    return tuple(rows)
