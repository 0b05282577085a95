"""Run configuration: a flat JSON document mapping canonical keys to values.

The canonical keys are the ModelParams field names (the course shape
included), the initial population (exactly one of initial_counts or
initial_total with initial_fractions), the optional initial_pulses counter
seed, and an optional output path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import CELL_TOTAL, PARAM_TABLE, PULSE_COUNT, ModelParams, ParamRow, PopulationState
from .core import check_simplex, check_total, fractions_to_counts, snap_counts
from .errors import ConfigError, InvalidParameterError, InvalidStateError, quote

_KNOWN_KEYS = frozenset(PARAM_TABLE) | {
    "initial_counts",
    "initial_total",
    "initial_fractions",
    "initial_pulses",
    "output",
    "ode_step",  # retired, since each growth day is exact: older configs parse, value ignored
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs."""

    params: ModelParams
    initial: PopulationState
    output: str | None = None


def _require_number(key: str, value: object, row: ParamRow = ParamRow(float)) -> float:
    row.check(key, value)
    return float(value)


def _require_triple(key: str, value: object) -> tuple[float, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{key} must be a list of three numbers, got {quote(value)}")
    return tuple(_require_number(key, item) for item in value)


def check_destination(name: str, path: object) -> None:
    """Reject an output path given as anything but a nonempty string with no
    NUL, which no file can be opened at; None means no path was given. Every
    caller checks its destinations before any course runs or any file is read."""
    if path is not None and (not isinstance(path, str) or not path or "\0" in path):
        raise ConfigError(f"{name} must be a nonempty path with no NUL, got {quote(path)}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Unknown keys are rejected by name; every parameter invariant is checked
    at parse time.

    Raises:
        ConfigError: naming the offending key and its expected range.
    """
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer literal too long to
        # convert; RecursionError, arrays or objects nested too deeply.
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration must be a JSON object, got {type(raw).__name__}")
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key: {quote(key)}")
    try:
        # Float keys become floats here; ModelParams checks every key against its row.
        param_values = {
            key: _require_number(key, raw[key]) if row.kind is float else raw[key]
            for key, row in PARAM_TABLE.items()
            if key in raw
        }
        params = ModelParams(**param_values)

        has_counts = "initial_counts" in raw
        has_split = "initial_total" in raw or "initial_fractions" in raw
        if has_counts and has_split:
            raise ConfigError(
                "provide exactly one of initial_counts or initial_total with initial_fractions"
            )
        if has_counts:
            counts = _require_triple("initial_counts", raw["initial_counts"])
            if min(counts) < 0:
                raise ConfigError(f"initial_counts must be nonnegative, got {counts}")
            check_total("initial_counts", counts)
            if params.integer_rounding:
                counts = snap_counts(counts)
        elif has_split:
            if "initial_total" not in raw or "initial_fractions" not in raw:
                raise ConfigError("initial_total and initial_fractions must be given together")
            total = _require_number("initial_total", raw["initial_total"], CELL_TOTAL)
            x = _require_triple("initial_fractions", raw["initial_fractions"])
            check_simplex("initial_fractions", x)
            counts = fractions_to_counts(x, total, params.integer_rounding)
        else:
            raise ConfigError(
                "missing initial population: provide initial_counts or "
                "initial_total with initial_fractions"
            )

        initial_pulses = raw.get("initial_pulses", 0)
        PULSE_COUNT.check("initial_pulses", initial_pulses)
    except (InvalidParameterError, InvalidStateError) as exc:
        raise ConfigError(str(exc)) from exc
    output = raw.get("output")
    check_destination("output", output)

    initial = PopulationState(*counts, pulses_delivered=initial_pulses)
    return RunConfig(params=params, initial=initial, output=output)


def load_config(path: str) -> RunConfig:
    """Read and parse a configuration file.

    Raises:
        ConfigError: for a file that is not UTF-8 text or a malformed document.
        OSError: for a file that cannot be read.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: configuration is not UTF-8 text: {exc}") from None
    return parse_config(text)
