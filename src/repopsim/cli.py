"""Command-line surface: run, sweep, diff, and check.

Exit codes: 0 success, 1 validation or check failure, 2 I/O failure,
3 numeric instability.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from collections.abc import Iterator
from pathlib import Path

from .analysis import SweepEntry, compare_to_golden, diff_velocity, lq_closed_form, sweep
from .config import check_destination, load_config
from .core import GROWTH_INTERVAL, PARAM_TABLE, POST_GROWTH, SIMPLEX_TOL, ConfigError
from .core import ModelParams, NumericInstabilityError, PopulationState, SimulationError, quote
from .growth import integrate_growth
from .io import (
    load_reference_table,
    read_trajectory,
    write_diff,
    write_sweep_summary,
    write_trajectory,
)
from .radiation import apply_pulse, build_radiation_operator
from .schedule import Trajectory, simulate_course

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

# Reference run behind `check`: the bundled table's parameter set. The course
# starts from an already-pulsed population, so the pulse counter seeds at one.
_REFERENCE_INITIAL = PopulationState(371270035.0, 210386353.0, 37127004.0, pulses_delivered=1)
_REFERENCE_WEEKS = 7
_REFERENCE_COUNT_TOLERANCE = 0.005  # early-course counts, days 1 through 5
_REFERENCE_VELOCITY_TOLERANCE = 0.10  # final recorded velocity, day 48


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repopsim",
        description="Deterministic three-fraction population simulator under pulsed therapy",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="simulate one course and write its trajectory")
    run.add_argument("--config", required=True, help="path to a JSON configuration")
    run.add_argument("--out", help="trajectory destination (overrides the config's output)")

    swp = commands.add_parser("sweep", help="simulate once per parameter value")
    swp.add_argument("--config", required=True, help="path to a JSON configuration")
    swp.add_argument("--param", required=True, help="numeric ModelParams field to vary")
    swp.add_argument("--values", required=True, help="comma-separated values to try")
    swp.add_argument("--out-dir", required=True, help="directory for trajectories and summary")
    swp.add_argument(
        "--threshold",
        type=float,
        help="record the first day the mean velocity reaches this value",
    )

    dif = commands.add_parser("diff", help="velocity difference of two trajectory files")
    dif.add_argument("first", help="trajectory file whose velocity is kept")
    dif.add_argument("second", help="trajectory file whose velocity is subtracted")
    dif.add_argument("--out", required=True, help="difference-curve destination")

    chk = commands.add_parser("check", help="run the invariant suite")
    chk.add_argument("--config", required=True, help="path to a JSON configuration")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    check_destination("--out", args.out)
    config = load_config(args.config)
    destination = args.out or config.output
    if destination is None:
        raise ConfigError("no output destination; pass --out or set output")
    trajectory = simulate_course(config.params, config.initial)
    write_trajectory(trajectory, destination)
    note = " (extinct)" if trajectory.extinct else ""
    print(f"wrote {len(trajectory.records)} records to {destination}{note}")
    return EXIT_OK


# A base-10 integer literal as int() reads one.
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")


def _parse_integer(token: str) -> int:
    """int(token), also past the 4,300 digits at which int() refuses a string."""
    try:
        return int(token)
    except ValueError:
        if not _INTEGER.fullmatch(token):
            raise
    import decimal  # Decimal has no digit limit; only such a token loads it

    return int(decimal.Decimal(token))


def _parse_sweep_values(param: str, text: str) -> tuple[float, ...]:
    # An unknown key parses as a number; sweep then reports it for each value.
    kind = PARAM_TABLE[param].kind if param in PARAM_TABLE else float
    if kind is bool:
        raise ConfigError(f"--param {param} is true or false, not a number, and cannot be swept")
    parse = _parse_integer if kind is int else kind
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(parse(token))
        except ValueError:
            wanted = "an integer" if kind is int else "a number"
            raise ConfigError(f"--values: {quote(token)} is not {wanted}") from None
    return tuple(values)


def _cmd_sweep(args: argparse.Namespace) -> int:
    check_destination("--out-dir", args.out_dir)
    config = load_config(args.config)
    values = _parse_sweep_values(args.param, args.values)
    out_dir = Path(args.out_dir)

    pending = sweep(config.params, args.param, values, config.initial, threshold=args.threshold)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    code = EXIT_OK
    for entry in pending:
        # Written as its course ends, so no finished trajectory waits for the summary.
        if entry.trajectory is not None:
            destination = out_dir / f"sweep_{args.param}_{entry.value!r}.csv"
            try:
                write_trajectory(entry.trajectory, destination)
            except OSError as exc:  # an error row like a rejected value's, but exit 2
                entry, code = SweepEntry(value=entry.value, error=str(exc)), EXIT_IO
            else:
                entry = entry._replace(trajectory=None)
                print(f"value {entry.value!r}: wrote {destination}")
        if entry.error is not None:
            print(f"value {quote(entry.value)}: {entry.error}")
        entries.append(entry)
    write_sweep_summary(entries, out_dir / "sweep_summary.csv")
    print(f"wrote {out_dir / 'sweep_summary.csv'}")
    return code


def _cmd_diff(args: argparse.Namespace) -> int:
    check_destination("--out", args.out)
    first = read_trajectory(args.first)
    second = read_trajectory(args.second)
    diff = diff_velocity(first, second)
    write_diff(diff, args.out)
    skipped = diff.unmatched_a + diff.unmatched_b
    print(f"wrote {len(diff.points)} aligned points to {args.out} ({skipped} unmatched)")
    return EXIT_OK


def _check_line(name: str, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return passed


def _growth_endpoints(course: Trajectory, params: ModelParams) -> Iterator[tuple]:
    """Each growth day's (record, mixing endpoint), replayed exactly from the record before."""
    v0, v1, q, p = params.v0, params.v1, params.q_mix, params.p_mix
    for before, rec in zip(course.records, course.records[1:]):
        if rec.phase == POST_GROWTH:
            x = (before.x0, before.x1, before.x2)
            yield rec, integrate_growth((v0, v1, rec.v2, q, p), x, GROWTH_INTERVAL, GROWTH_INTERVAL)


def _cmd_check(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    params = config.params
    op = build_radiation_operator(params)
    # Column j of the operator is the pulse of the unit state e_j, so its sum is that total.
    units = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    pulsed = [apply_pulse(op, e) for e in units]
    column = max(abs(y0 + y1 + y2 - op.s) for y0, y1, y2 in pulsed) / op.s
    detail = f"worst relative column deviation {column:.3e}"
    results = [_check_line("operator-column-sums", column <= 1e-12, detail)]

    y0, y1, y2 = 6e8, 3.4e8, 6e7
    for _ in range(30):
        y0, y1, y2 = apply_pulse(op, (y0, y1, y2))
    closed = lq_closed_form(1e9, 30, params)
    lq_error = abs(y0 + y1 + y2 - closed) / closed
    detail = f"30-pulse total vs closed form, relative error {lq_error:.3e}"
    results.append(_check_line("pulse-closed-form", lq_error <= 1e-12, detail))

    endpoints = _growth_endpoints(simulate_course(params, config.initial), params)
    drift = max((abs(x0 + x1 + x2 - 1.0) for _, (x0, x1, x2) in endpoints), default=0.0)
    detail = f"max |sum(x) - 1| at integrator endpoints {drift:.3e}"
    results.append(_check_line("simplex-drift", drift <= SIMPLEX_TOL, detail))

    reference_run = simulate_course(ModelParams(weeks=_REFERENCE_WEEKS), _REFERENCE_INITIAL)
    reference = load_reference_table()
    early_rows, early = compare_to_golden(reference_run, reference, (1, 5), ("y0", "y1", "y2"))
    final_rows, final = compare_to_golden(reference_run, reference, (48, 48), ("velocity",))
    detail = f"early-course counts worst {early:.3e}, final velocity worst {final:.3e}"
    passed = (
        early_rows > 0 and early <= _REFERENCE_COUNT_TOLERANCE
        and final_rows > 0 and final <= _REFERENCE_VELOCITY_TOLERANCE
    )
    results.append(_check_line("reference-table", passed, detail))

    return EXIT_OK if all(results) else EXIT_VALIDATION


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "diff": _cmd_diff, "check": _cmd_check}
    try:
        return handlers[args.command](args)
    except NumericInstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
